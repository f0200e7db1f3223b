"""Exact symbolic gap-length sets of hull-disjoint attractors.

For a hull-disjoint instance the bounded complementary intervals of the root
attractor decompose recursively: every gap length is a spacing between
consecutive child hulls at some vertex, rescaled by the ratio product of a
directed path from the root.  Storing the per-vertex spacing sets plus the
graph therefore represents the entire (infinite) gap length set; truncated
enumeration and exact membership are pruned searches over that
representation, both run by `model.ProductWalk`.  Enumeration walks
afresh per cutoff; membership keeps one walk per gap set and continues it
to each deeper query.  Gap lengths form a set: equal lengths from different
gaps collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exactnum import format_rational
from .model import (
    Edge,
    GDInstance,
    HullList,
    ResourceError,
    SeparationReport,
    HULL_DISJOINT,
    ProductWalk,
    _out_map,
    child_hulls,
    hulls,
    path_products,
    separation_check,
)

DEFAULT_VALUE_BUDGET = 10**6


class UnsupportedInstanceError(RuntimeError):
    """The exact gap pipeline requires hull-disjoint child images."""


@dataclass
class SymbolicGapSet:
    """Finite description of the full gap length set of F_root.

    level0 maps each reachable vertex to its sorted spacings between
    consecutive child hulls; any gap length of F_root equals a path ratio
    product from the root times one of these spacings.  Treat instances as
    immutable after build; `_memo` caches derived results and keeps the
    root's membership walk, which grows as queries go deeper.  It also
    keeps what `analysis.verify_sandwich` would otherwise redo for every
    theta of a sweep: certificate pools with their formatted strings, one
    per realization-vertex set and floor, and cone decisions, one per cone
    and ratio.  So each gap set pays for these once, and only while it
    lives.
    """

    graph: GDInstance
    root: str
    level0: dict[str, tuple[Fraction, ...]]
    hull_list: HullList
    reachable: tuple[str, ...]
    _memo: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class GapEnumeration:
    """All distinct gap lengths >= cutoff, sorted descending."""

    cutoff: Fraction
    values: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "cutoff": format_rational(self.cutoff),
            "values": [format_rational(v) for v in self.values],
        }

    def csv_lines(self) -> list[str]:
        return [format_rational(v) for v in self.values]


def build(
    g: GDInstance,
    root: Optional[str] = None,
    separation: Optional[SeparationReport] = None,
) -> SymbolicGapSet:
    """Construct the symbolic gap set rooted at `root` (default: first vertex).

    Refuses instances that are not hull-disjoint: with overlapping or merely
    SSC-separated child hulls the complement spacings at one level are no
    longer gap lengths of the attractor, so this representation would lie.
    """
    root = root if root is not None else g.vertices[0]
    if root not in g.vertices:
        raise ValueError(f"unknown root vertex {root!r}")
    if separation is None:
        separation = separation_check(g)
    if separation.verdict != HULL_DISJOINT:
        raise UnsupportedInstanceError(
            "exact gap analysis requires hull-disjoint children, got "
            f"{separation.verdict!r}; use the metric pipeline instead"
        )
    h = hulls(g)
    seen = _reach(_out_map(g), root)
    reachable = tuple(v for v in g.vertices if v in seen)
    level0: dict[str, tuple[Fraction, ...]] = {}
    for v in reachable:
        ch = child_hulls(g, h, v)
        spacings = {
            ch[i + 1][1][0] - ch[i][1][1] for i in range(len(ch) - 1)
        }
        level0[v] = tuple(sorted(spacings))
    return SymbolicGapSet(g, root, level0, h, reachable)


def natural_delta(s: SymbolicGapSet) -> Fraction:
    """The smallest level-zero spacing visible from the root; every gap at
    or above it belongs to the residual head of the decomposition."""
    return min(sp[0] for v, sp in s.level0.items() if sp)


def _reach(out: dict[str, list[Edge]], v: str) -> set[str]:
    """Vertices reachable from v by edge paths, v included."""
    seen = {v}
    frontier = [v]
    while frontier:
        for e in out[frontier.pop()]:
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return seen


def _max_visible(s: SymbolicGapSet) -> dict[str, Fraction]:
    """Largest level-zero spacing reachable from each vertex (path products
    only shrink, so this bounds every value contributed below a vertex)."""
    if "maxvis" in s._memo:
        return s._memo["maxvis"]
    out = _out_map(s.graph)
    result = {
        v: max((sp for w in _reach(out, v) for sp in s.level0[w]), default=Fraction(0))
        for v in s.reachable
    }
    s._memo["maxvis"] = result
    return result


def enumerate_gaps(
    s: SymbolicGapSet,
    cutoff,
    budget: int = DEFAULT_VALUE_BUDGET,
) -> GapEnumeration:
    """All distinct gap lengths >= cutoff, exactly.

    Walks (vertex, path product) states, pruning a subtree as soon as the
    product times the largest spacing visible below it falls under the
    cutoff; equal products at the same vertex are merged.
    """
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    key = ("enum", cutoff)
    if key in s._memo:
        return s._memo[key]
    values: set[Fraction] = set()
    walk = ProductWalk(s.graph, s.root, _max_visible(s))
    for v, n, d in walk.reach(cutoff, 8 * budget, "gap enumeration"):
        for sp in s.level0[v]:
            val = Fraction(n * sp.numerator, d * sp.denominator)
            if val >= cutoff:
                values.add(val)
                if len(values) > budget:
                    raise ResourceError(
                        f"gap enumeration exceeded its budget of {budget} values"
                    )
    result = GapEnumeration(cutoff, tuple(sorted(values, reverse=True)))
    s._memo[key] = result
    return result


def contains(s: SymbolicGapSet, x) -> bool:
    """Exact membership of x in the full (untruncated) gap length set."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("gap lengths are positive")
    return bool(realization_vertices(s, x))


def realization_vertices(s: SymbolicGapSet, x) -> tuple[str, ...]:
    """Vertices v admitting a root path with x == (path product) * spacing(v),
    sorted by name; empty means x is not a gap length.

    Every state on such a path has key >= x, so x is realized at v exactly
    when (v, x / spacing) is a state of the gap set's one membership walk
    once it has reached x.  Deeper queries continue that walk.  Its ceiling
    is enumerate_gaps' default, 8 * DEFAULT_VALUE_BUDGET states at or above x.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("gap lengths are positive")
    if "walk" not in s._memo:
        s._memo["walk"] = ProductWalk(s.graph, s.root, _max_visible(s))
    walk = s._memo["walk"]
    walk.reach(x, 8 * DEFAULT_VALUE_BUDGET, "gap membership")
    return tuple(
        v for v in sorted(s.reachable)
        if any((v, *(x / sp).as_integer_ratio()) in walk.seen for sp in s.level0[v])
    )


def cycle_products(s: SymbolicGapSet, v: str, floor) -> frozenset[Fraction]:
    """Ratio products of nonempty closed paths v -> v with product >= floor.

    Every such product r certifies whole geometric ladders inside the gap
    set: if x is realized at v then x * r**k is a gap length for all k >= 0.
    """
    floor = Fraction(floor)
    key = ("cyc", v, floor)
    if key in s._memo:
        return s._memo[key]
    result = frozenset(path_products(s.graph, v, v, floor))
    s._memo[key] = result
    return result
