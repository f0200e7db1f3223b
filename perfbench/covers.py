"""Workload ``covers``: exact interval covers, separation refinement, pruning
and the paper's metric-versus-symbolic cross-validation.

Inputs are the bundled fixtures plus the unknown-verdict system
(1/3, 0), (1/3, 2/3), (1/27, 7/27); ``--seed`` shuffles the order of task
groups.  Exact affine compositions in ``model`` dominate; no cone code and no
2-D or 3-D metric code runs here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dustgaps import analysis, fixture_path, metgaps, model, symgaps
from dustgaps.exactnum import format_rational

from common import CheckFailed, Task

UNKNOWN = model.GDInstance.ifs(
    [
        model.Similarity1D(Fraction(1, 3), 1, Fraction(0)),
        model.Similarity1D(Fraction(1, 3), 1, Fraction(2, 3)),
        model.Similarity1D(Fraction(1, 27), 1, Fraction(7, 27)),
    ]
)
# separation_check rebuilds both covers from depth 1 for every k up to this
UNKNOWN_REFINE_DEPTH = 8
# deepest cover of each ladder cover_intervals(g, root, 1..depth); overlap3
# stops at 10, because its depth-12 cover alone takes about 6.6 s
LADDER_DEPTHS = {
    "cantor": 12,
    "mixed": 12,
    "gd2": 12,
    "iterate2-cantor": 6,
    "overlap3": 10,
    "unknown": 8,
}
SAMPLE_DEPTH = 12
CROSS_CUTOFF = Fraction(1, 100)
PATH_FLOORS = (Fraction(1, 10**3), Fraction(1, 10**6))
HAUSDORFF_DEPTH = 8


def _intervals_fp(intervals) -> list[list[str]]:
    return [[format_rational(lo), format_rational(hi)] for lo, hi in intervals]


def _cover_fp(cover: model.Cover) -> dict:
    return {
        "intervals": _intervals_fp(cover.intervals),
        "points": [format_rational(p) for p in cover.points],
        "resolution": format_rational(cover.resolution),
    }


def _separation_fp(rep: model.SeparationReport) -> dict:
    return {
        "verdict": rep.verdict,
        "witnesses": [[w.kind, list(w.edge_ids), w.inner, list(w.word)] for w in rep.witnesses],
        "refined": [list(p) for p in rep.refined_pairs],
        "unresolved": [list(p) for p in rep.unresolved],
    }


def _hulls_fp(h: model.HullList) -> dict:
    return {v: [format_rational(lo), format_rational(hi)] for v, (lo, hi) in h.intervals.items()}


def _prune_fp(res: analysis.PruneResult) -> dict:
    return {
        "removals": [r.to_json() for r in res.removals],
        "kept": [e.eid for e in res.pruned.edges],
        "separation": res.separation,
        "distance": format_rational(res.hausdorff_distance),
        "bound": format_rational(res.hausdorff_bound),
    }


def cross_validation_group(name: str, g: model.GDInstance) -> list[Task]:
    """Sample the attractor, take metric gaps of the cloud, and match them
    one-to-one with the symbolic enumeration within twice the resolution."""
    root = g.vertices[0]
    state: dict = {}

    def sample():
        state["cover"] = model.approximate(g, root, SAMPLE_DEPTH)
        return state["cover"]

    def metric():
        cloud = metgaps.PointCloud.from_cover(state["cover"])
        state["metric"] = metgaps.metric_gaps(cloud, CROSS_CUTOFF)
        return state["metric"]

    def exact():
        return symgaps.enumerate_gaps(symgaps.build(g), CROSS_CUTOFF)

    def agree(enum: symgaps.GapEnumeration) -> None:
        metric_values = state["metric"].values
        tol = 2 * state["cover"].resolution
        if len(metric_values) != len(enum.values) or any(
            abs(m - e) > tol for m, e in zip(metric_values, enum.values)
        ):
            raise CheckFailed(f"{name}: metric gaps do not match the symbolic gaps")

    return [
        Task(f"{name}/approximate/{SAMPLE_DEPTH}", sample, _cover_fp),
        Task(f"{name}/metric_gaps", metric, lambda r: r.to_json()),
        Task(f"{name}/enumerate_gaps/cross", exact, None, agree),
    ]


class Workload:
    name = "covers"

    def __init__(self, seed: int, goldens: dict):
        self.goldens = goldens
        self.fixtures = {
            fx: model.load_instance(fixture_path(fx))
            for fx in ("cantor", "mixed", "gd2", "iterate2-cantor", "overlap3")
        }
        overlap3 = self.fixtures["overlap3"]
        self.pruned3 = overlap3.without_edge("S3")
        groups: list[list[Task]] = []
        systems = dict(self.fixtures, unknown=UNKNOWN)
        for name, top in LADDER_DEPTHS.items():
            g = systems[name]
            groups += [
                [
                    Task(
                        f"{name}/cover_intervals/{d}",
                        lambda g=g, d=d: model.cover_intervals(g, g.vertices[0], d),
                        _intervals_fp,
                    )
                ]
                for d in range(1, top + 1)
            ]
        for name, g in systems.items():
            groups.append([Task(f"{name}/hulls", lambda g=g: model.hulls(g), _hulls_fp)])
        for name, g in self.fixtures.items():
            groups.append(
                [Task(f"{name}/separation_check", lambda g=g: model.separation_check(g), _separation_fp)]
            )
            for u in g.vertices:
                for v in g.vertices:
                    groups += [
                        [
                            Task(
                                f"{name}/path_products/{u}{v}/{format_rational(f)}",
                                lambda g=g, u=u, v=v, f=f: model.path_products(g, u, v, f),
                                lambda ps: sorted(format_rational(p) for p in ps),
                            )
                        ]
                        for f in PATH_FLOORS
                    ]
        groups.append(
            [
                Task(
                    "unknown/separation_check",
                    lambda: model.separation_check(UNKNOWN, refine_depth=UNKNOWN_REFINE_DEPTH),
                    _separation_fp,
                )
            ]
        )
        groups.append(
            [
                Task(
                    "overlap3/prune_to_ssc",
                    lambda: analysis.prune_to_ssc(overlap3, full_measure_asserted=True),
                    _prune_fp,
                )
            ]
        )
        # overlap3 without S3, the SSC system the pruning above arrives at
        groups.append([Task("overlap3-pruned/hulls", lambda: model.hulls(self.pruned3), _hulls_fp)])
        groups.append(
            [
                Task(
                    "overlap3-pruned/separation_check",
                    lambda: model.separation_check(self.pruned3),
                    _separation_fp,
                )
            ]
        )
        groups.append(
            [
                Task(
                    f"overlap3/hausdorff_distance/{HAUSDORFF_DEPTH}",
                    lambda: model.hausdorff_distance(
                        model.cover_intervals(overlap3, "u", HAUSDORFF_DEPTH),
                        model.cover_intervals(self.pruned3, "u", HAUSDORFF_DEPTH),
                    ),
                    format_rational,
                )
            ]
        )
        for fx in ("mixed", "gd2", "cantor"):
            groups.append(cross_validation_group(fx, self.fixtures[fx]))
        random.Random(seed).shuffle(groups)
        self.groups = groups

    def make_pass(self) -> list[Task]:
        # covers keep no memo, so the same task objects serve every pass
        return [t for group in self.groups for t in group]
