"""Ratio analysis of gap length sets and its structural consequences.

Given a truncated gap enumeration and a distinguished gap theta, this module
mines the common ratios of geometric sequences inside the gap set, computes
the rational-rank invariants of those ratios (the algebraic dependence and
independence numbers) either from the instance's contraction ratios or
intrinsically from gap data alone, checks commensurability between candidate
generating ratio sets, derives lower bounds on generating-system
cardinality, and prunes redundant maps from one-vertex systems whose
children overlap by containment, each removal proved by an exact
composition certificate.

Ratio candidates live in two tiers.  Certified ratios come with an exact
closed-path certificate (theta is realized at a vertex carrying a closed
path of that ratio product, so the whole geometric ladder provably lies in
the gap set).  Empirical ratios merely survive the truncated chain test plus
symbolic spot checks below the floor; both tiers are computed and compared
so a spurious survivor is reported loudly instead of silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf
from typing import Iterable, Optional, Union

from . import symgaps
from .exactnum import ExponentVector, QSpan, factor, format_rational, nonneg_solve, qrank
from .model import GDInstance, HULL_DISJOINT, SSC_CERTIFIED, hulls, separation_check
from .symgaps import GapEnumeration, SymbolicGapSet

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

DEFAULT_MIN_WITNESSES = 4
DEFAULT_VERIFY_DEPTH = 12


class PruneError(RuntimeError):
    """Pruning could not restore separation under the stated hypothesis."""


@dataclass(frozen=True)
class MonomialCone:
    """Finite set of positive rational generators, considered through the
    cone (nonnegative rational exponents) they generate multiplicatively.
    `vectors` holds the generators' prime-exponent vectors, factored once
    here."""

    generators: tuple[Fraction, ...]
    vectors: tuple[ExponentVector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = tuple(sorted({Fraction(g) for g in self.generators}))
        if any(g <= 0 for g in gens):
            raise ValueError("generators must be positive")
        if not gens:
            raise ValueError("need at least one generator")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "vectors", tuple(factor(g) for g in gens))


@dataclass(frozen=True)
class ConeDecision:
    status: str  # "yes" | "no"
    coefficients: Optional[tuple[Fraction, ...]] = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.coefficients is not None:
            out["coefficients"] = [format_rational(c) for c in self.coefficients]
        return out


def cone_contains_q(cone: MonomialCone, x) -> ConeDecision:
    """Is x a product of generators with nonnegative rational exponents?
    Decided exactly through prime-exponent vectors; the empty product is
    allowed, so x == 1 is always a member."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if x == 1:
        return ConeDecision(
            "yes", coefficients=tuple(Fraction(0) for _ in cone.generators)
        )
    sol = nonneg_solve(factor(x), cone.vectors)
    if sol is None:
        return ConeDecision("no")
    return ConeDecision("yes", coefficients=tuple(sol))


@dataclass(frozen=True)
class EmpiricalRatio:
    """A ratio surviving the truncated chain test: the maximal geometric
    ladder through theta, all members >= floor present in the set, topped at
    theta_prime with `witnesses` present members."""

    ratio: Fraction
    theta_prime: Fraction
    witnesses: int
    verified: bool
    verified_depth: int

    def to_json(self) -> dict:
        return {
            "ratio": format_rational(self.ratio),
            "theta_prime": format_rational(self.theta_prime),
            "witnesses": self.witnesses,
            "verified": self.verified,
            "verified_depth": self.verified_depth,
        }


@dataclass(frozen=True)
class RatioReport:
    theta: Fraction
    floor: Fraction
    min_witnesses: int
    verify_depth: int
    certified: tuple[Fraction, ...]
    empirical: tuple[EmpiricalRatio, ...]
    symbolic_used: bool

    def verified_ratios(self) -> tuple[Fraction, ...]:
        """Certified ratios plus empirical ones that passed verification."""
        return _descending(
            [*self.certified, *(e.ratio for e in self.empirical if e.verified)]
        )

    def all_ratios(self) -> tuple[Fraction, ...]:
        return _descending([*self.certified, *(e.ratio for e in self.empirical)])

    def to_json(self) -> dict:
        return {
            "theta": format_rational(self.theta),
            "floor": format_rational(self.floor),
            "min_witnesses": self.min_witnesses,
            "verify_depth": self.verify_depth,
            "certified": [format_rational(r) for r in self.certified],
            "empirical": [e.to_json() for e in self.empirical],
            "symbolic_used": self.symbolic_used,
        }


def _descending(ratios: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """The distinct ratios, largest first.  Dedupes on integer pairs and
    orders by correctly rounded floats, falling back to the exact comparison
    only on a float tie, so no Fraction is hashed and few are compared."""
    distinct = {r.as_integer_ratio(): r for r in ratios}
    return tuple(sorted(distinct.values(), key=_order_key, reverse=True))


def _order_key(r: Fraction) -> tuple[float, Fraction]:
    try:
        return r.numerator / r.denominator, r
    except OverflowError:  # beyond the float range, above every float
        return inf, r


def ratios_of(
    theta_set: Union[GapEnumeration, Iterable[Fraction]],
    theta,
    min_witnesses: int = DEFAULT_MIN_WITNESSES,
    verify_depth: int = DEFAULT_VERIFY_DEPTH,
    symbolic: Optional[SymbolicGapSet] = None,
) -> RatioReport:
    """Mine ratios r in (0,1) of geometric sequences through theta.

    Any ratio whose truncated ladder has a second member in the set is a
    pairwise quotient with theta on one side, so those quotients are the
    complete candidate pool; closed-path products at theta's realization
    vertices join the pool when a symbolic set is supplied, and are
    certified exactly.  Empirical candidates need `min_witnesses` present
    members at or above the floor and, with a symbolic set, must pass
    membership checks for `verify_depth` further members below the floor.
    """
    return _mine_ratios(theta_set, theta, min_witnesses, verify_depth, symbolic, None)


def check_mining_args(min_witnesses: int, verify_depth: int) -> None:
    """Reject the mining arguments of `ratios_of` and its callers on arrival,
    before a stage that may be skipped or may exhaust a budget."""
    if min_witnesses < 3:
        raise ValueError("min_witnesses below 3 would admit accidental pairs")
    if verify_depth < 0:
        raise ValueError("verify_depth must be nonnegative")


def _mine_ratios(
    theta_set: Union[GapEnumeration, Iterable[Fraction]],
    theta,
    min_witnesses: int,
    verify_depth: int,
    symbolic: Optional[SymbolicGapSet],
    certified_pool: Optional[tuple[Fraction, ...]],
) -> RatioReport:
    """`ratios_of`, taking the certificate pool at the floor from a caller
    that already holds it (None: walk it here when `symbolic` is given).

    Ladders run over reduced (numerator, denominator) int pairs; Fractions
    are built only for survivors and for membership queries.  Each ladder
    stops at its first miss, so neither the queries made nor the reports
    depend on the order in which candidates are tried.
    """
    theta = Fraction(theta)
    check_mining_args(min_witnesses, verify_depth)
    if isinstance(theta_set, GapEnumeration):
        values = theta_set.values
        floor = theta_set.cutoff
    else:
        values = {Fraction(v) for v in theta_set}
        if not values:
            raise ValueError("theta set must be nonempty")
        floor = min(values)
    if floor <= 0:
        raise ValueError("gap lengths are positive")
    present = {(v.numerator, v.denominator) for v in values}
    tn, td = theta.numerator, theta.denominator
    if (tn, td) not in present:
        raise ValueError("theta must be a member of the enumerated set")
    fn, fd = floor.numerator, floor.denominator
    # v / theta below 1, theta / v above it: the pairwise quotients < 1
    candidates: set[tuple[int, int]] = set()
    for vn, vd in present:
        a, b = vn * td, vd * tn
        if a != b:
            g = gcd(a, b)
            candidates.add((a // g, b // g) if a < b else (b // g, a // g))
    certified: tuple[Fraction, ...] = ()
    certified_pairs: set[tuple[int, int]] = set()
    if symbolic is not None:
        if certified_pool is None:
            certified_pool = _truncated_certificate_pool(symbolic, theta, floor)[0]
        certified = tuple(certified_pool)
        certified_pairs = {(r.numerator, r.denominator) for r in certified}
        candidates |= certified_pairs
    empirical: list[EmpiricalRatio] = []
    for rn, rd in candidates:
        # theta and every ladder member below it down to the floor
        witnesses = 0
        cn, cd = tn, td
        while cn * fd >= fn * cd and (cn, cd) in present:
            witnesses += 1
            cn, cd = _reduced(cn * rn, cd * rd)
        if cn * fd >= fn * cd:
            continue  # a member above the floor is missing
        # then every present member above theta
        top = (tn, td)
        un, ud = _reduced(tn * rd, td * rn)
        while (un, ud) in present:
            witnesses += 1
            top = (un, ud)
            un, ud = _reduced(un * rd, ud * rn)
        if witnesses < min_witnesses:
            continue
        verified = False
        if symbolic is not None:
            # a closed-path certificate already guarantees every deeper
            # member; otherwise check them from the first one below the
            # floor, and drop the ratio as a truncation artifact on a miss
            if (rn, rd) not in certified_pairs and not _ladder_continues(
                symbolic, cn, cd, rn, rd, verify_depth
            ):
                continue
            verified = True
        empirical.append(
            EmpiricalRatio(
                Fraction(rn, rd),
                Fraction(*top),
                witnesses,
                verified,
                verify_depth if verified else 0,
            )
        )
    empirical.sort(key=lambda e: e.ratio, reverse=True)
    return RatioReport(
        theta,
        floor,
        min_witnesses,
        verify_depth,
        certified,
        tuple(empirical),
        symbolic is not None,
    )


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def _ladder_continues(
    s: SymbolicGapSet, n: int, d: int, rn: int, rd: int, depth: int
) -> bool:
    """Are n/d and its next depth - 1 multiples by rn/rd all gap lengths?
    Stops at the first miss."""
    for _ in range(depth):
        if not symgaps.contains(s, Fraction(n, d)):
            return False
        n, d = _reduced(n * rn, d * rd)
    return True


@dataclass(frozen=True)
class AlgdepReport:
    """Rational-rank invariants of a ratio set.

    independence_number is the dimension of the Q-span of the log-ratios
    (computed exactly through prime-exponent vectors); dependence_number is
    one less.
    """

    independence_number: int
    dependence_number: int
    basis: QSpan
    ratios: tuple[Fraction, ...]
    certified_dimension: Optional[int] = None
    warnings: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "independence_number": self.independence_number,
            "dependence_number": self.dependence_number,
            "ratios": [format_rational(r) for r in self.ratios],
            "basis": [{str(p): e for p, e in v.entries} for v in self.basis.basis],
            "certified_dimension": self.certified_dimension,
            "warnings": list(self.warnings),
        }


def algdep_of_ifs(g: GDInstance) -> AlgdepReport:
    """Dependence/independence numbers of the instance's contraction ratios."""
    ratios = g.ratio_set()
    span = qrank([factor(r) for r in ratios if r != 1])
    return AlgdepReport(span.dimension, span.dimension - 1, span, ratios)


def algdep_from_gaps(report: RatioReport) -> AlgdepReport:
    """Dependence/independence numbers computed intrinsically from mined gap
    ratios, with the certified tier compared against the full verified set;
    a dimension mismatch is a loud warning, never silently merged."""
    certified = [r for r in report.certified if r != 1]
    verified = [r for r in report.verified_ratios() if r != 1]
    warnings: list[str] = []
    ratios = verified
    if not ratios:
        unverified = [r for r in report.all_ratios() if r != 1]
        if unverified:
            ratios = unverified
            warnings.append(
                "no symbolic verification available; using raw truncated ratios"
            )
        else:
            return AlgdepReport(
                0, -1, QSpan(), (), None, ("empty ratio set: degenerate report",)
            )
    span = qrank([factor(r) for r in ratios])
    cert_dim: Optional[int] = None
    if certified:
        cert_dim = qrank([factor(r) for r in certified]).dimension
        if cert_dim != span.dimension:
            warnings.append(
                f"tier mismatch: certified ratios span dimension {cert_dim} "
                f"but the verified set spans {span.dimension}; inspect the "
                "empirical survivors before trusting either number"
            )
    return AlgdepReport(
        span.dimension,
        span.dimension - 1,
        span,
        tuple(sorted(ratios, reverse=True)),
        cert_dim,
        tuple(warnings),
    )


def dependence_from_gaps(
    s: SymbolicGapSet,
    cutoff,
    theta=None,
    min_witnesses: int = DEFAULT_MIN_WITNESSES,
    verify_depth: int = DEFAULT_VERIFY_DEPTH,
    budget: int = symgaps.DEFAULT_VALUE_BUDGET,
) -> tuple[Fraction, Optional[Fraction], Optional[AlgdepReport]]:
    """Enumerate the gaps >= cutoff, mine the ladders through theta and
    compute the dependence numbers from them (`algdep_from_gaps`).

    theta defaults to the largest enumerated gap below the residual
    threshold, the cheapest ladder base.  Returns (threshold, theta,
    report); theta and report are None when no enumerated gap qualifies.
    """
    check_mining_args(min_witnesses, verify_depth)
    enum = symgaps.enumerate_gaps(s, cutoff, budget=budget)
    threshold = symgaps.natural_delta(s)
    if theta is None:
        eligible = [v for v in enum.values if v < threshold]
        if not eligible:
            return threshold, None, None
        theta = eligible[0]
    theta = Fraction(theta)
    report = ratios_of(enum, theta, min_witnesses, verify_depth, symbolic=s)
    return threshold, theta, algdep_from_gaps(report)


def lower_bound(report: AlgdepReport) -> int:
    """The independence number bounds the size of any generating system of
    the same attractor from below (each generator contributes at most one
    new log-ratio direction)."""
    return max(report.independence_number, 0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural verification: pass, fail, or inconclusive,
    with the machine-checkable claim it instantiates and exact witnesses."""

    claim: str
    status: str
    summary: str
    details: dict

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "summary": self.summary,
            "details": self.details,
        }


def verify_commensurability(
    ratios_a: Iterable[Fraction], ratios_x: Iterable[Fraction]
) -> Verdict:
    """Check that each ratio set lies in the nonnegative rational monomial
    cone of the other; two generating systems of one dust-like set must pass
    both inclusions, so a counterexample separates the systems."""
    a = MonomialCone(tuple(Fraction(r) for r in ratios_a))
    x = MonomialCone(tuple(Fraction(r) for r in ratios_x))
    details: dict = {"x_in_cone_a": [], "a_in_cone_x": []}
    failures: list[str] = []
    for label, members, cone in (
        ("x_in_cone_a", x.generators, a),
        ("a_in_cone_x", a.generators, x),
    ):
        for r in members:
            decision = cone_contains_q(cone, r)
            details[label].append(
                {"ratio": format_rational(r), **decision.to_json()}
            )
            if decision.status != "yes":
                failures.append(f"{format_rational(r)} escapes {label.split('_')[-1]}")
    if failures:
        return Verdict(
            "commensurability",
            FAIL,
            "counterexample: " + "; ".join(failures),
            details,
        )
    return Verdict(
        "commensurability", PASS, "both cone inclusions hold", details
    )


def _truncated_certificate_pool(
    s: SymbolicGapSet, theta: Fraction, floor: Fraction
) -> tuple[tuple[Fraction, ...], tuple[str, ...]]:
    """Closed-path products >= floor at theta's realization vertices: the
    ratios whose full ladders through theta provably lie in the gap set,
    sorted descending, and their formatted strings.  The pool depends only
    on the vertex set and the floor, so the gap set keeps one per pair."""
    vertices = symgaps.realization_vertices(s, theta)
    key = ("pool", vertices, floor)
    if key not in s._memo:
        out: set[Fraction] = set()
        for v in vertices:
            out.update(p for p in symgaps.cycle_products(s, v, floor) if p < 1)
        pool = _descending(out)
        s._memo[key] = (pool, tuple(format_rational(r) for r in pool))
    return s._memo[key]


def _upper_check(cone: MonomialCone, decided: dict, r: Fraction) -> dict:
    """The row `verify_sandwich` reports for r against the rational cone.
    `decided` keeps the cone's decisions as frozen rows, keyed by r's
    integer pair; every call returns a fresh dict with fresh lists."""
    key = r.as_integer_ratio()
    if key not in decided:
        row = {"ratio": format_rational(r), **cone_contains_q(cone, r).to_json()}
        decided[key] = tuple(
            (k, tuple(v) if isinstance(v, list) else v) for k, v in row.items()
        )
    return {k: list(v) if isinstance(v, tuple) else v for k, v in decided[key]}


def verify_sandwich(
    g: GDInstance,
    s: SymbolicGapSet,
    theta,
    floor,
    min_witnesses: int = DEFAULT_MIN_WITNESSES,
    verify_depth: int = DEFAULT_VERIFY_DEPTH,
    report: Optional[RatioReport] = None,
    budget: int = symgaps.DEFAULT_VALUE_BUDGET,
) -> Verdict:
    """Squeeze the mined ratio set from both sides.

    Lower: every truncated closed-path product at theta's realization
    vertices (for one-vertex systems: every product of contraction ratios
    >= floor) must be certified.  Upper: every verified ratio must lie in
    the nonnegative rational cone of the contraction ratios.  theta must
    sit below the residual threshold for the ladder structure to apply;
    otherwise the verdict is inconclusive rather than a failure.  `budget`
    caps the values of the gap enumeration at the floor.  A supplied
    `report` must have been mined at this theta and floor.

    A sweep over many thetas of one gap set shares the set's memo: one
    certificate pool per realization-vertex set and floor, and one cone
    decision per ratio.
    """
    check_mining_args(min_witnesses, verify_depth)
    theta = Fraction(theta)
    floor = Fraction(floor)
    if report is not None and (report.theta, report.floor) != (theta, floor):
        raise ValueError(
            f"report was mined at theta {format_rational(report.theta)}, floor "
            f"{format_rational(report.floor)}, not theta "
            f"{format_rational(theta)}, floor {format_rational(floor)}"
        )
    enum = symgaps.enumerate_gaps(s, floor, budget=budget)
    if theta not in enum.values:
        return Verdict(
            "ratio-sandwich",
            INCONCLUSIVE,
            "theta is not an enumerated gap at this floor",
            {"theta": format_rational(theta)},
        )
    threshold = symgaps.natural_delta(s)
    if theta >= threshold:
        return Verdict(
            "ratio-sandwich",
            INCONCLUSIVE,
            "theta is not below the residual threshold "
            f"{format_rational(threshold)}; the ladder structure does not "
            "apply this high",
            {
                "theta": format_rational(theta),
                "threshold": format_rational(threshold),
            },
        )
    lower_pool, pool_text = _truncated_certificate_pool(s, theta, floor)
    if report is None:
        # mined with this pool, so its certified tier is the pool itself
        report = _mine_ratios(enum, theta, min_witnesses, verify_depth, s, lower_pool)
        missing: list[Fraction] = []
        certified_text = list(pool_text)
    else:
        certified = set(report.certified)
        missing = [r for r in lower_pool if r not in certified]
        certified_text = [format_rational(r) for r in report.certified]
    cone = MonomialCone(g.ratio_set())
    decided = s._memo.setdefault(("cone", cone.generators), {})
    escapes = []
    upper_checks = []
    for r in report.verified_ratios():
        row = _upper_check(cone, decided, r)
        upper_checks.append(row)
        if row["status"] != "yes":
            escapes.append(r)
    details = {
        "theta": format_rational(theta),
        "floor": format_rational(floor),
        "lower_pool": list(pool_text),
        "certified": certified_text,
        "upper_checks": upper_checks,
    }
    if missing or escapes:
        parts = []
        if missing:
            parts.append(
                "uncertified ladder products: "
                + ", ".join(format_rational(r) for r in missing)
            )
        if escapes:
            parts.append(
                "ratios escaping the rational cone: "
                + ", ".join(format_rational(r) for r in escapes)
            )
        return Verdict("ratio-sandwich", FAIL, "; ".join(parts), details)
    return Verdict(
        "ratio-sandwich",
        PASS,
        f"{len(lower_pool)} ladder products certified and "
        f"{len(upper_checks)} mined ratios inside the rational cone",
        details,
    )


def verify_intrinsic_dependence(
    g: GDInstance,
    floor=Fraction(1, 1000),
    theta=None,
    root: Optional[str] = None,
    min_witnesses: int = DEFAULT_MIN_WITNESSES,
    verify_depth: int = DEFAULT_VERIFY_DEPTH,
    budget: int = symgaps.DEFAULT_VALUE_BUDGET,
) -> Verdict:
    """Compare the dependence number computed intrinsically from gap data
    with the one computed from the instance's contraction ratios.

    One-vertex systems must agree exactly; for larger graphs the gap-side
    dimension can only be bounded above by the instance-side independence
    number, so the check is an inequality there.  `budget` caps the values
    of the gap enumeration at the floor.
    """
    check_mining_args(min_witnesses, verify_depth)
    floor = Fraction(floor)
    sep = separation_check(g)
    if sep.verdict != HULL_DISJOINT:
        return Verdict(
            "intrinsic-dependence",
            INCONCLUSIVE,
            f"requires a hull-disjoint instance, got {sep.verdict!r}",
            {"separation": sep.verdict},
        )
    s = symgaps.build(g, root=root, separation=sep)
    threshold, theta, gaps_rep = dependence_from_gaps(
        s, floor, theta, min_witnesses, verify_depth, budget
    )
    if gaps_rep is None:
        return Verdict(
            "intrinsic-dependence",
            INCONCLUSIVE,
            "no enumerated gap below the residual threshold; lower the floor",
            {"threshold": format_rational(threshold)},
        )
    ifs_rep = algdep_of_ifs(g)
    details = {
        "theta": format_rational(theta),
        "floor": format_rational(floor),
        "from_gaps": gaps_rep.to_json(),
        "from_ifs": ifs_rep.to_json(),
    }
    if g.one_vertex:
        ok = gaps_rep.independence_number == ifs_rep.independence_number
        summary = (
            f"dependence {gaps_rep.dependence_number} "
            f"{'=' if ok else '!='} {ifs_rep.dependence_number}"
        )
        return Verdict("intrinsic-dependence", PASS if ok else FAIL, summary, details)
    ok = gaps_rep.independence_number <= ifs_rep.independence_number
    summary = (
        f"gap-side dimension {gaps_rep.independence_number} "
        f"{'<=' if ok else '>'} instance independence {ifs_rep.independence_number}"
    )
    return Verdict("intrinsic-dependence", PASS if ok else FAIL, summary, details)


@dataclass(frozen=True)
class Removal:
    removed: str
    kept: str
    word: tuple[str, ...]

    def to_json(self) -> dict:
        return {"removed": self.removed, "kept": self.kept, "word": list(self.word)}


@dataclass(frozen=True)
class PruneResult:
    pruned: GDInstance
    removals: tuple[Removal, ...]
    separation: str
    hausdorff_distance: Fraction
    hausdorff_bound: Fraction
    check_depth: int


def prune_to_ssc(
    g: GDInstance,
    full_measure_asserted: bool,
    depth: int = 10,
) -> PruneResult:
    """Drop maps whose children nest inside siblings until separation holds.

    Under the full-measure hypothesis, which the caller must assert, an
    overlapping pair of children must nest; each removal carries the word w
    of its certificate S_inner = S_outer . S_w.  The depth-d covers of the
    original and pruned systems are then equal, so `hausdorff_distance` is 0
    by proof: w never contains the inner map, as its ratio r_inner / r_outer
    exceeds r_inner; substituting the words, for later removals too, turns
    every original depth-d word into a longer word over the kept maps; and
    since S_e(hull) lies in the unchanged hull, that word's cylinder lies in
    the cylinder of its depth-d prefix.  `hausdorff_bound` is the tolerance
    2 * max_ratio**depth * diameter of a depth-d cover.
    """
    if not full_measure_asserted:
        raise ValueError(
            "refusing to prune: the full-measure hypothesis was not asserted"
        )
    if not g.one_vertex:
        raise ValueError("pruning is defined for one-vertex systems")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    current = g
    removals: list[Removal] = []
    while True:
        sep = separation_check(current, refine_depth=depth)
        if sep.verdict in (HULL_DISJOINT, SSC_CERTIFIED):
            break
        nested = sorted(
            (w for w in sep.witnesses if w.kind == "nested"),
            key=lambda w: w.inner,
        )
        if not nested:
            raise PruneError(
                f"full-measure hypothesis not confirmed at depth {depth}: "
                "children overlap without a nesting certificate"
            )
        w = nested[0]
        outer = w.edge_ids[0] if w.edge_ids[1] == w.inner else w.edge_ids[1]
        if len(current.edges) <= 2:
            raise PruneError("pruning would leave fewer than two maps")
        current = current.without_edge(w.inner)
        removals.append(Removal(w.inner, outer, w.word))
    bound = 2 * g.max_ratio**depth * hulls(g).diameter(g.vertices[0])
    return PruneResult(current, tuple(removals), sep.verdict, Fraction(0), bound, depth)
