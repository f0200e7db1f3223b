"""Command-line front end.

Batch analysis only: every subcommand reads an instance or a point cloud,
runs one pipeline, and prints a single deterministic report (JSON envelope
or bare CSV) to stdout, optionally copied to --output.  Reports carry the
tool version and the exact parameters so a run can be reproduced from its
own output.  Exit codes: 0 success or verdict pass/inconclusive, 1 verdict
failure, 2 usage or validation error, 3 resource budget exhausted.

The environment variable DUSTGAPS_BUDGET (positive integer) overrides the
default work ceiling for symbolic enumeration and cover construction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__, model
from .exactnum import format_rational, parse_rational

# each subcommand imports what it runs: symgaps for the symbolic gap set,
# analysis for mining and verdicts, metgaps for a point cloud; numpy loads
# only with a float cloud, so validate, hull and every exact run start
# without it.  Records are NamedTuples or plain classes rather than
# decorated record classes, so an exact run loads neither that decorator's
# stdlib module nor the inspect it imports
if TYPE_CHECKING:
    from . import analysis, metgaps, symgaps

_BUDGET_ENV = "DUSTGAPS_BUDGET"


def _budget(default: int) -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
    if n <= 0:
        raise ValueError(f"{_BUDGET_ENV} must be positive, got {n}")
    return n


def _envelope(command: str, params: dict, result: dict, claim: Optional[str] = None) -> str:
    doc = {
        "tool": "dustgaps",
        "version": __version__,
        "command": command,
        "parameters": params,
        "result": result,
    }
    if claim is not None:
        doc["claim"] = claim
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _validated(path: str) -> model.GDInstance:
    g = model.load_instance(path)
    finds = model.validate(g)
    if finds:
        raise model.StructuralError(
            "; ".join(f"{f.code}: {f.message}" for f in finds)
        )
    return g


def _ratio_list(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty ratio list")
    return tuple(parse_rational(p) for p in parts)


def _cloud_source(args) -> dict:
    """The echoed source of a metric run, each parameter meaning what ran: a
    CSV cloud takes no input that only samples an instance, and --depth and
    --points default to 12 and midpoint."""
    source = dict(instance=args.instance, root=args.root, depth=args.depth, points=args.points)
    given = [k if k == "instance" else f"--{k}" for k, v in source.items() if v is not None]
    if args.cloud is not None and given:
        raise ValueError(f"--cloud takes no {', '.join(given)}: they only sample an instance file")
    args.depth = 12 if args.depth is None else args.depth
    args.points = args.points or "midpoint"
    return {**source, "cloud": args.cloud, "depth": args.depth, "points": args.points}


def _cloud_from_args(args) -> metgaps.PointCloud:
    from . import metgaps

    if args.cloud is not None:
        return metgaps.read_cloud_csv(args.cloud)
    if args.instance is None:
        raise ValueError("need an instance file or --cloud")
    g = _validated(args.instance)
    root = g.vertices[0] if args.root is None else args.root
    if root not in g.vertices:
        raise ValueError(f"unknown root vertex {root!r}")
    cover = model.approximate(
        g,
        root,
        args.depth,
        point_mode=args.points,
        budget=_budget(model.DEFAULT_INTERVAL_BUDGET),
    )
    return metgaps.PointCloud.from_cover(cover)


def _in_cloud_arithmetic(cloud: metgaps.PointCloud, value: Fraction, name: str):
    """value as the cloud compares it: exact, or as a float64."""
    if cloud.exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float cloud") from None


# ---------------------------------------------------------------- handlers


def _cmd_validate(args) -> tuple[dict, dict, Optional[str], int]:
    params = {"instance": args.instance}
    g = model.load_instance(args.instance)
    finds = model.validate(g)
    if finds:
        result = {
            "valid": False,
            "findings": [{"code": f.code, "message": f.message} for f in finds],
        }
        return params, result, None, 2
    sep = model.separation_check(g)
    result = {
        "valid": True,
        "findings": [],
        "separation": sep.verdict,
        "vertices": list(g.vertices),
        "edges": len(g.edges),
        "ratios": [format_rational(r) for r in g.ratio_set()],
    }
    return params, result, None, 0


def _cmd_hull(args) -> tuple[dict, dict, Optional[str], int]:
    params = {"instance": args.instance, "root": args.root}
    g = _validated(args.instance)
    if args.root is not None and args.root not in g.vertices:
        raise ValueError(f"unknown vertex {args.root!r}")
    h = model.hulls(g)
    names = list(g.vertices) if args.root is None else [args.root]
    result = {
        "hulls": {
            u: {
                "lo": format_rational(h.lo(u)),
                "hi": format_rational(h.hi(u)),
                "diameter": format_rational(h.diameter(u)),
            }
            for u in names
        }
    }
    return params, result, None, 0


def _cmd_gaps(args) -> tuple[dict, dict, Optional[str], int]:
    if args.exact:
        from . import symgaps

        if args.instance is None:
            raise ValueError("gaps --exact needs an instance file")
        if args.cutoff is None:
            raise ValueError("gaps --exact needs --cutoff")
        cutoff = parse_rational(args.cutoff)
        params = {
            "instance": args.instance,
            "mode": "exact",
            "cutoff": format_rational(cutoff),
            "root": args.root,
        }
        g = _validated(args.instance)
        s = symgaps.build(g, root=args.root)
        enum = symgaps.enumerate_gaps(
            s, cutoff, budget=_budget(symgaps.DEFAULT_VALUE_BUDGET)
        )
        if args.format == "csv":
            return params, {"_csv": enum.csv_lines()}, None, 0
        # build refuses every instance that is not hull-disjoint
        result = {"separation": model.HULL_DISJOINT, "root": s.root, **enum.to_json()}
        return params, result, None, 0
    from . import metgaps

    if args.noise_floor is None:
        raise ValueError("gaps --metric needs --noise-floor")
    floor = parse_rational(args.noise_floor)
    params = {
        "mode": "metric",
        "noise_floor": format_rational(floor),
        **_cloud_source(args),
        "method": "auto",  # the cloud alone selects the spanning-tree backend
    }
    cloud = _cloud_from_args(args)
    report = metgaps.metric_gaps(cloud, _in_cloud_arithmetic(cloud, floor, "--noise-floor"))
    if args.format == "csv":
        lines = [
            format_rational(v) if cloud.exact else repr(float(v))
            for v in report.values
        ]
        return params, {"_csv": lines}, None, 0
    result = {
        "cloud": {
            "n": cloud.n,
            "dim": cloud.dim,
            "exact": cloud.exact,
            "resolution": None
            if cloud.resolution is None
            else format_rational(cloud.resolution),
        },
        **report.to_json(),
    }
    return params, result, None, 0


def _cmd_kappa(args) -> tuple[dict, dict, Optional[str], int]:
    from . import metgaps

    params = {
        **_cloud_source(args),
        "delta": list(args.delta) if args.delta else None,
        "method": "auto",  # the cloud alone selects the spanning-tree backend
    }
    cloud = _cloud_from_args(args)
    if args.delta:
        rows = []
        for text in args.delta:
            d = parse_rational(text)
            value = metgaps.kappa(cloud, _in_cloud_arithmetic(cloud, d, "--delta"))
            rows.append({"delta": format_rational(d), "kappa": value})
        if args.format == "csv":
            lines = [f"{r['delta']},{r['kappa']}" for r in rows]
            return params, {"_csv": lines}, None, 0
        return params, {"n": cloud.n, "kappa": rows}, None, 0
    profile = metgaps.merge_heights(cloud)
    if args.format == "csv":
        if cloud.exact:
            lines = [
                f"{format_rational(h)},{c}"
                for h, c in zip(profile.heights, profile.counts)
            ]
        else:
            lines = [
                f"{h!r},{c}" for h, c in zip(profile.heights, profile.counts)
            ]
        return params, {"_csv": lines}, None, 0
    return params, profile.to_json(), None, 0


def _cmd_ratios(args) -> tuple[dict, dict, Optional[str], int]:
    from . import analysis, symgaps

    _mining_defaults(args)
    analysis.check_mining_args(args.min_witnesses, args.verify_depth)
    theta = parse_rational(args.theta)
    cutoff = parse_rational(args.cutoff)
    params = {
        "instance": args.instance,
        "theta": format_rational(theta),
        "cutoff": format_rational(cutoff),
        "min_witnesses": args.min_witnesses,
        "verify_depth": args.verify_depth,
        "root": args.root,
    }
    g = _validated(args.instance)
    s = symgaps.build(g, root=args.root)
    enum = symgaps.enumerate_gaps(
        s, cutoff, budget=_budget(symgaps.DEFAULT_VALUE_BUDGET)
    )
    report = analysis.ratios_of(
        enum,
        theta,
        min_witnesses=args.min_witnesses,
        verify_depth=args.verify_depth,
        symbolic=s,
    )
    return params, report.to_json(), None, 0


def _dependence(args) -> tuple[dict, analysis.AlgdepReport, dict]:
    """Parameters, dependence report and gap-side fields of algdep and bound."""
    from . import analysis, symgaps

    _mining_defaults(args)
    source = "ifs" if args.from_ifs else "gaps"
    params = {
        "instance": args.instance,
        "source": source,
        "theta": args.theta,
        "cutoff": args.cutoff if source == "gaps" else None,
        "min_witnesses": args.min_witnesses,
        "verify_depth": args.verify_depth,
        "root": args.root,
    }
    g = _validated(args.instance)
    if args.from_ifs:
        return params, analysis.algdep_of_ifs(g), {}
    cutoff = parse_rational(args.cutoff)
    s = symgaps.build(g, root=args.root)
    budget = _budget(symgaps.DEFAULT_VALUE_BUDGET)
    theta = None if args.theta is None else parse_rational(args.theta)
    threshold, theta, rep = analysis.dependence_from_gaps(
        s, cutoff, theta, args.min_witnesses, args.verify_depth, budget
    )
    if rep is None:
        raise ValueError(
            "no enumerated gap below the residual threshold "
            f"{format_rational(threshold)}; lower --cutoff"
        )
    extra = {
        "theta": format_rational(theta),
        "cutoff": format_rational(cutoff),
        "threshold": format_rational(threshold),
    }
    return params, rep, extra


def _cmd_algdep(args) -> tuple[dict, dict, Optional[str], int]:
    params, rep, extra = _dependence(args)
    return params, {**extra, **rep.to_json()}, None, 0


def _cmd_verify(args) -> tuple[dict, dict, Optional[str], int]:
    from . import analysis, symgaps

    _mining_defaults(args)
    if args.commensurability is not None:
        if args.commensurability and args.ratios_a:
            raise ValueError("give either a second instance or ratio lists, not both")
        if args.ratios_a is not None or args.ratios_b is not None:
            if not (args.ratios_a and args.ratios_b):
                raise ValueError("--ratios-a and --ratios-b go together")
            a = _ratio_list(args.ratios_a)
            b = _ratio_list(args.ratios_b)
            params = {
                "mode": "commensurability",
                "ratios_a": [format_rational(r) for r in a],
                "ratios_b": [format_rational(r) for r in b],
            }
        else:
            if args.instance is None or not args.commensurability:
                raise ValueError("commensurability needs two instances or two ratio lists")
            ga = _validated(args.instance)
            gb = _validated(args.commensurability)
            a = ga.ratio_set()
            b = gb.ratio_set()
            params = {
                "mode": "commensurability",
                "instance": args.instance,
                "other": args.commensurability,
            }
        verdict = analysis.verify_commensurability(a, b)
    elif args.yzx:
        if args.instance is None:
            raise ValueError("verify --yzx needs an instance")
        params = {
            "mode": "yzx",
            "instance": args.instance,
            "floor": args.floor,
            "theta": args.theta,
            "min_witnesses": args.min_witnesses,
            "verify_depth": args.verify_depth,
            "root": args.root,
        }
        verdict = analysis.verify_intrinsic_dependence(
            _validated(args.instance),
            floor=parse_rational(args.floor),
            theta=None if args.theta is None else parse_rational(args.theta),
            root=args.root,
            min_witnesses=args.min_witnesses,
            verify_depth=args.verify_depth,
            budget=_budget(symgaps.DEFAULT_VALUE_BUDGET),
        )
    else:
        if args.instance is None:
            raise ValueError("verify --sandwich needs an instance")
        if args.theta is None:
            raise ValueError("verify --sandwich needs --theta")
        params = {
            "mode": "sandwich",
            "instance": args.instance,
            "theta": args.theta,
            "floor": args.floor,
            "min_witnesses": args.min_witnesses,
            "verify_depth": args.verify_depth,
            "root": args.root,
        }
        g = _validated(args.instance)
        s = symgaps.build(g, root=args.root)
        verdict = analysis.verify_sandwich(
            g,
            s,
            parse_rational(args.theta),
            parse_rational(args.floor),
            min_witnesses=args.min_witnesses,
            verify_depth=args.verify_depth,
            budget=_budget(symgaps.DEFAULT_VALUE_BUDGET),
        )
    code = 1 if verdict.status == analysis.FAIL else 0
    return params, verdict.to_json(), verdict.claim, code


def _cmd_bound(args) -> tuple[dict, dict, Optional[str], int]:
    from . import analysis

    params, rep, extra = _dependence(args)
    result = {
        **extra,
        "lower_bound": analysis.lower_bound(rep),
        "independence_number": rep.independence_number,
        "dependence_number": rep.dependence_number,
        "warnings": list(rep.warnings),
    }
    return params, result, "cardinality-bound", 0


def _cmd_prune(args) -> tuple[dict, dict, Optional[str], int]:
    from . import analysis

    params = {
        "instance": args.instance,
        "assert_full_measure": bool(args.assert_full_measure),
        "depth": args.depth,
        "pruned_output": args.write_pruned,
    }
    g = model.load_instance(args.instance)
    try:
        res = analysis.prune_to_ssc(g, args.assert_full_measure, depth=args.depth)
    except analysis.PruneError as exc:
        # a pruning that cannot restore separation fails its claim
        return {}, _error(exc), "ssc-pruning", 1
    pruned_doc = model.instance_to_json(res.pruned)
    if args.write_pruned:
        Path(args.write_pruned).write_text(
            json.dumps(pruned_doc, sort_keys=True, indent=2) + "\n"
        )
    result = {
        "separation": res.separation,
        "removals": [r.to_json() for r in res.removals],
        "kept_edges": [e.eid for e in res.pruned.edges],
        "hausdorff_distance": format_rational(res.hausdorff_distance),
        "hausdorff_bound": format_rational(res.hausdorff_bound),
        "check_depth": res.check_depth,
        "pruned": pruned_doc,
    }
    return params, result, "ssc-pruning", 0


# ------------------------------------------------------------------ parser


def _add_cloud_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cloud", help="CSV point cloud (one point per line)")
    p.add_argument("--depth", type=int, help="cover depth when sampling an instance (default 12)")
    p.add_argument("--points", choices=("midpoint", "endpoints"), help="default midpoint")


def _add_mining_options(p: argparse.ArgumentParser) -> None:
    # the defaults live in analysis, which the parser does not import;
    # _mining_defaults fills them in when a handler runs
    p.add_argument("--min-witnesses", type=int)
    p.add_argument("--verify-depth", type=int)


def _mining_defaults(args) -> None:
    from . import analysis

    if args.min_witnesses is None:
        args.min_witnesses = analysis.DEFAULT_MIN_WITNESSES
    if args.verify_depth is None:
        args.verify_depth = analysis.DEFAULT_VERIFY_DEPTH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dustgaps",
        description="exact gap geometry of dust-like attractors on the line",
        epilog=f"set {_BUDGET_ENV} to override enumeration/cover work budgets",
    )
    parser.add_argument("--version", action="version", version=f"dustgaps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("hull", help="exact attractor hulls")
    p.add_argument("instance")
    p.add_argument("--root")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("gaps", help="gap length enumeration")
    p.add_argument("instance", nargs="?")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true", help="symbolic enumeration")
    mode.add_argument("--metric", action="store_true", help="merge heights of a sampled cloud")
    p.add_argument("--cutoff", help="smallest reported gap (exact mode)")
    p.add_argument("--noise-floor", help="smallest trusted height (metric mode)")
    p.add_argument("--root")
    _add_cloud_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_gaps)

    p = sub.add_parser("kappa", help="component-count profile of a cloud")
    p.add_argument("instance", nargs="?")
    p.add_argument("--delta", action="append", help="evaluate at this scale (repeatable)")
    p.add_argument("--root")
    _add_cloud_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_kappa)

    p = sub.add_parser("ratios", help="geometric-ladder ratios through a gap")
    p.add_argument("instance")
    p.add_argument("--theta", required=True)
    p.add_argument("--cutoff", default="1/1000")
    p.add_argument("--root")
    _add_mining_options(p)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_ratios)

    p = sub.add_parser("algdep", help="algebraic dependence number")
    p.add_argument("instance")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-ifs", action="store_true")
    src.add_argument("--from-gaps", action="store_true")
    p.add_argument("--theta")
    p.add_argument("--cutoff", default="1/1000")
    p.add_argument("--root")
    _add_mining_options(p)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_algdep)

    p = sub.add_parser("verify", help="structural verdicts")
    p.add_argument("instance", nargs="?")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--commensurability",
        metavar="OTHER",
        nargs="?",
        const="",
        help="second instance file, or bare with --ratios-a/--ratios-b",
    )
    mode.add_argument("--yzx", action="store_true", help="intrinsic dependence check")
    mode.add_argument("--sandwich", action="store_true", help="two-sided ratio check")
    p.add_argument("--ratios-a", help="explicit comma-separated ratio list")
    p.add_argument("--ratios-b", help="explicit comma-separated ratio list")
    p.add_argument("--theta")
    p.add_argument("--floor", default="1/1000")
    p.add_argument("--root")
    _add_mining_options(p)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bound", help="lower bound on generating cardinality")
    p.add_argument("instance")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--from-ifs", action="store_true")
    src.add_argument("--from-gaps", action="store_true", help="the default")
    p.add_argument("--theta")
    p.add_argument("--cutoff", default="1/1000")
    p.add_argument("--root")
    _add_mining_options(p)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("prune", help="drop nested maps under the full-measure hypothesis")
    p.add_argument("instance")
    p.add_argument("--assert-full-measure", action="store_true")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--write-pruned", metavar="PATH", help="write the pruned instance here")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_prune)

    return parser


# exception class -> exit code of its error envelope; the first matching
# class wins.  symgaps.UnsupportedInstanceError is a StructuralError, and
# _cmd_prune reports a PruneError itself.
_ERRORS = (
    (model.ResourceError, 3),
    (ValueError, 2),
    (OSError, 2),
    (model.StructuralError, 2),
)


def _error(exc: Exception) -> dict:
    return {"error": {"kind": type(exc).__name__, "message": str(exc)}}


def _error_report(command: str, exc: Exception) -> tuple[str, int]:
    code = next(c for cls, c in _ERRORS if isinstance(exc, cls))
    return _envelope(command, {}, _error(exc), None), code


def _report(args) -> tuple[str, int]:
    try:
        params, result, claim, code = args.handler(args)
    except tuple(cls for cls, _ in _ERRORS) as exc:
        return _error_report(args.command, exc)
    if "_csv" in result:
        return "\n".join(result["_csv"]) + "\n", code
    return _envelope(args.command, params, result, claim), code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    text, code = _report(args)
    output = getattr(args, "output", None)
    if output:
        # the file is written before stdout, so a bad path prints its own
        # error envelope instead of the report, and is not tried again
        try:
            Path(output).write_text(text)
        except OSError as exc:
            text, code = _error_report(args.command, exc)
    sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
