"""Workload ``exact``: symbolic gap sets, ratio ladders and cone verdicts.

Systems come from a fixed pool of seeded random hull-disjoint instances:
one-vertex systems with 2-4 maps from a smooth-ratio pool, and two-vertex
graph-directed systems with two maps per vertex.  The ``mixed`` and ``gd2``
fixtures and the 4-map ``budgetless`` system (see README, known defects)
join them.  ``--seed`` mirrors each system or not (x -> 1 - x, which changes
every offset but no gap length) and shuffles the order of systems.  So every
seed hands the library different instances at the same cost, and the
goldens hold for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dustgaps import analysis, fixture_path, model, symgaps
from dustgaps.exactnum import format_rational

from common import Task

POOL_SEED = 20260818
POOL_ONE_VERTEX = 10
POOL_TWO_VERTEX = 2
ENUM_CUTOFFS = (Fraction(1, 10**6), Fraction(1, 10**9))
# 1e-5 is left out: through realization_vertices it roughly triples the pass
RATIO_FLOORS = (Fraction(1, 10**3), Fraction(1, 10**4))
SANDWICH_FLOOR = Fraction(1, 1000)
COMMENSURABILITY_RATIOS = 6

# ratios with 13-smooth numerator and denominator, all <= 1/2
SMOOTH_RATIOS = tuple(
    Fraction(t)
    for t in (
        "1/2 1/3 2/5 1/4 3/7 1/5 2/7 5/11 3/8 1/6 "
        "5/13 1/7 3/10 2/9 4/9 5/12 1/8 7/16 4/13 6/13"
    ).split()
)

# The seeded 4-map system with ratios 3/8, 1/7, 1/8, 1/5 whose ratio mining
# spends seconds in realization_vertices, which has no state budget: about
# 1.5 s at floor 1e-4 and 7.5 s at 1e-5.
BUDGETLESS = model.GDInstance.ifs(
    [
        model.Similarity1D(Fraction(3, 8), -1, Fraction(3, 8)),
        model.Similarity1D(Fraction(1, 7), -1, Fraction(199, 360)),
        model.Similarity1D(Fraction(1, 8), -1, Fraction(46, 63)),
        model.Similarity1D(Fraction(1, 5), -1, Fraction(1)),
    ]
)


def _layout(rng: random.Random, ratios: list[Fraction]) -> list[tuple[Fraction, int, Fraction]]:
    """Place child images of [0, 1] left to right with positive gaps, so the
    children tile [0, 1] hull-disjointly.  Returns (ratio, sign, offset)."""
    leftover = Fraction(1) - sum(ratios)
    weights = [rng.randint(1, 9) for _ in range(len(ratios) - 1)]
    wsum = sum(weights)
    out = []
    x = Fraction(0)
    for i, r in enumerate(ratios):
        sign = rng.choice([1, -1])
        out.append((r, sign, x if sign == 1 else x + r))
        x += r
        if i < len(ratios) - 1:
            x += leftover * weights[i] / wsum
    return out


def _ratios(rng: random.Random, n: int) -> list[Fraction]:
    while True:
        ratios = [rng.choice(SMOOTH_RATIOS) for _ in range(n)]
        if sum(ratios) < 1:
            return ratios


def random_one_vertex(rng: random.Random) -> model.GDInstance:
    n = rng.choice([2, 2, 3, 3, 4])
    sims = [model.Similarity1D(r, s, o) for r, s, o in _layout(rng, _ratios(rng, n))]
    if len(set(sims)) < len(sims):
        return random_one_vertex(rng)
    return model.GDInstance.ifs(sims)


def random_two_vertex(rng: random.Random) -> model.GDInstance:
    """Vertices u, v with two children each, tiling [0, 1] like ``gd2``: one
    child stays and one crosses, so both attractors have hull [0, 1]."""
    edges = []
    for src, other in (("u", "v"), ("v", "u")):
        dsts = [src, other]
        rng.shuffle(dsts)
        for k, (r, s, o) in enumerate(_layout(rng, _ratios(rng, 2))):
            eid = f"{src}{k + 1}"
            edges.append(model.Edge(eid, src, dsts[k], model.Similarity1D(r, s, o)))
    return model.GDInstance(("u", "v"), tuple(edges))


def pool() -> list[model.GDInstance]:
    """The fixed instance pool; index i is stable across runs and seeds."""
    rng_one, rng_two = random.Random(POOL_SEED), random.Random(POOL_SEED + 1)
    one = [random_one_vertex(rng_one) for _ in range(POOL_ONE_VERTEX)]
    two = [random_two_vertex(rng_two) for _ in range(POOL_TWO_VERTEX)]
    return one + two


def _fmt(values) -> list[str]:
    return [format_rational(v) for v in values]


def _symbolic_fp(s: symgaps.SymbolicGapSet) -> dict:
    return {
        "root": s.root,
        "reachable": list(s.reachable),
        "level0": {v: _fmt(sp) for v, sp in s.level0.items()},
    }


def system_tasks(name: str, g: model.GDInstance, plan: dict) -> list[Task]:
    """The exact pipeline on one system, as planned by ``plan_system``.

    Later tasks read the fresh SymbolicGapSet that the build task stores in
    ``state``, so every pass pays for its own memo.
    """
    state: dict = {"reports": {}}
    tasks: list[Task] = []

    def build():
        state["s"] = symgaps.build(g)
        return state["s"]

    tasks.append(Task(f"{name}/build", build, _symbolic_fp))
    for cutoff in ENUM_CUTOFFS:
        tasks.append(
            Task(
                f"{name}/enumerate/{format_rational(cutoff)}",
                lambda c=cutoff: symgaps.enumerate_gaps(state["s"], c),
                lambda e: _fmt(e.values),
            )
        )

    def ratios(floor, theta):
        enum = symgaps.enumerate_gaps(state["s"], floor)
        state["reports"][floor] = analysis.ratios_of(enum, theta, symbolic=state["s"])
        return state["reports"][floor]

    for floor, theta in plan["ratio_thetas"]:
        tasks.append(
            Task(
                f"{name}/ratios_of/{format_rational(floor)}",
                lambda f=floor, t=theta: ratios(f, t),
                lambda r: r.to_json(),
            )
        )
    if plan["ratio_thetas"]:
        first = plan["ratio_thetas"][0][0]

        def algdep():
            rep = analysis.algdep_from_gaps(state["reports"][first])
            return rep, analysis.lower_bound(rep)

        tasks.append(
            Task(
                f"{name}/algdep_from_gaps",
                algdep,
                lambda out: {**out[0].to_json(), "lower_bound": out[1]},
            )
        )
        # cone solves take at most eight generators: the largest mined ratios
        tasks.append(
            Task(
                f"{name}/verify_commensurability",
                lambda: analysis.verify_commensurability(
                    g.ratio_set(),
                    state["reports"][first].verified_ratios()[:COMMENSURABILITY_RATIOS],
                ),
                lambda v: v.to_json(),
            )
        )
    for theta in plan["sandwich_thetas"]:
        tasks.append(
            Task(
                f"{name}/verify_sandwich/{format_rational(theta)}",
                lambda t=theta: analysis.verify_sandwich(g, state["s"], t, SANDWICH_FLOOR),
                lambda v: v.to_json(),
            )
        )
    return tasks


def _eligible(s: symgaps.SymbolicGapSet, floor: Fraction) -> list[Fraction]:
    """Enumerated gaps at ``floor`` below the residual threshold."""
    threshold = symgaps.natural_delta(s)
    return [v for v in symgaps.enumerate_gaps(s, floor).values if v < threshold]


def plan_system(g: model.GDInstance) -> dict:
    """Thetas for one system: the largest eligible gap at each ratio floor
    (floors without one are skipped) and every eligible gap at the sandwich
    floor."""
    s = symgaps.build(g)
    ratio_thetas = []
    for floor in RATIO_FLOORS:
        eligible = _eligible(s, floor)
        if eligible:
            ratio_thetas.append((floor, eligible[0]))
    return {"ratio_thetas": ratio_thetas, "sandwich_thetas": _eligible(s, SANDWICH_FLOOR)}


def mirrored(g: model.GDInstance) -> model.GDInstance:
    """Conjugate every map by x -> 1 - x: the attractors are reflected, so
    each gap length, ratio and verdict stays the same."""
    edges = tuple(
        model.Edge(
            e.eid,
            e.src,
            e.dst,
            model.Similarity1D(e.sim.ratio, e.sim.sign, 1 - e.sim.sign * e.sim.ratio - e.sim.offset),
        )
        for e in g.edges
    )
    return model.GDInstance(g.vertices, edges)


class Workload:
    name = "exact"

    def __init__(self, seed: int, goldens: dict):
        self.goldens = goldens
        rng = random.Random(seed)
        systems = [(f"pool{i:02d}", g) for i, g in enumerate(pool())]
        systems += [(fx, model.load_instance(fixture_path(fx))) for fx in ("mixed", "gd2")]
        systems.append(("budgetless", BUDGETLESS))
        systems = [(n, mirrored(g) if rng.random() < 0.5 else g) for n, g in systems]
        rng.shuffle(systems)
        self.systems = [(n, g, plan_system(g)) for n, g in systems]

    def make_pass(self) -> list[Task]:
        tasks: list[Task] = []
        for name, g, plan in self.systems:
            tasks += system_tasks(name, g, plan)
        return tasks
