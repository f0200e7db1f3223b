"""Similarity systems on the real line over a directed multigraph.

Each directed edge u -> v carries an orientation-signed similarity; a valid
instance determines a unique list of compact attractors (F_u) satisfying
F_u = union over edges e: u -> v of S_e(F_v).  A plain IFS is the one-vertex
case.  Everything here is exact: hull endpoints, child-hull layouts,
separation certificates, finite interval covers, and path ratio products are
computed in rational arithmetic with no rounding anywhere.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .exactnum import format_rational, parse_rational

HULL_DISJOINT = "hull_disjoint"
SSC_CERTIFIED = "ssc_certified"
OVERLAP = "overlap"
UNKNOWN = "unknown"

DEFAULT_INTERVAL_BUDGET = 10**6
_STATE_BUDGET = 500_000

Interval = tuple[Fraction, Fraction]


class StructuralError(RuntimeError):
    """The instance violates a structural requirement of the operation."""


class ResourceError(RuntimeError):
    """An enumeration exceeded its interval or state budget."""


class AffineMap(NamedTuple):
    """x -> slope*x + intercept with nonzero slope."""

    slope: Fraction
    intercept: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def compose(self, inner: "AffineMap") -> "AffineMap":
        return AffineMap(self.slope * inner.slope, self.slope * inner.intercept + self.intercept)

    def fixed_point(self) -> Fraction:
        return self.intercept / (1 - self.slope)

    def image(self, lo: Fraction, hi: Fraction) -> Interval:
        a, b = self(lo), self(hi)
        return (a, b) if a <= b else (b, a)


_IDENTITY = AffineMap(Fraction(1), Fraction(0))


class Similarity1D(
    NamedTuple("Similarity1D", [("ratio", Fraction), ("sign", int), ("offset", Fraction)])
):
    """x -> sign*ratio*x + offset; contracting exactly when ratio < 1.

    ratio and offset are stored as Fractions; sign is the int 1 or -1, so
    no float or bool enters the exact pipeline through it."""

    __slots__ = ()

    def __new__(cls, ratio, sign: int, offset) -> "Similarity1D":
        ratio, offset = Fraction(ratio), Fraction(offset)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be the integer 1 or -1, got {sign!r}")
        if ratio <= 0:
            raise ValueError(f"ratio must be positive, got {ratio}")
        return super().__new__(cls, ratio, sign, offset)

    def affine(self) -> AffineMap:
        return AffineMap(self.sign * self.ratio, self.offset)

    def image(self, lo: Fraction, hi: Fraction) -> Interval:
        return self.affine().image(lo, hi)


class Edge(NamedTuple):
    eid: str
    src: str
    dst: str
    sim: Similarity1D


class GDInstance(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def ifs(cls, sims: Iterable[Similarity1D], vertex: str = "u") -> "GDInstance":
        edges = tuple(
            Edge(f"S{i + 1}", vertex, vertex, s) for i, s in enumerate(sims)
        )
        return cls((vertex,), edges)

    @property
    def one_vertex(self) -> bool:
        return len(self.vertices) == 1

    @property
    def max_ratio(self) -> Fraction:
        return max(e.sim.ratio for e in self.edges)

    def ratio_set(self) -> tuple[Fraction, ...]:
        return tuple(sorted({e.sim.ratio for e in self.edges}))

    def without_edge(self, eid: str) -> "GDInstance":
        return GDInstance(self.vertices, tuple(e for e in self.edges if e.eid != eid))


class Finding(NamedTuple):
    code: str
    message: str


def validate(g: GDInstance) -> list[Finding]:
    """Structural checks; an empty list means the instance is well formed."""
    finds: list[Finding] = []
    if not g.vertices:
        finds.append(Finding("no-vertices", "instance has no vertices"))
        return finds
    if len(set(g.vertices)) != len(g.vertices):
        finds.append(Finding("duplicate-vertex", "vertex names are not distinct"))
    seen_ids: set[str] = set()
    seen_maps: set[tuple] = set()
    for e in g.edges:
        if e.eid in seen_ids:
            finds.append(Finding("duplicate-edge-id", f"edge id {e.eid!r} repeats"))
        seen_ids.add(e.eid)
        if e.src not in g.vertices or e.dst not in g.vertices:
            finds.append(
                Finding("bad-endpoint", f"edge {e.eid!r} references unknown vertex")
            )
        if e.sim.ratio >= 1:
            finds.append(
                Finding(
                    "not-contracting",
                    f"edge {e.eid!r}: ratio {format_rational(e.sim.ratio)} >= 1",
                )
            )
        key = (e.src, e.dst, e.sim.ratio, e.sim.sign, e.sim.offset)
        if key in seen_maps:
            finds.append(
                Finding("duplicate-map", f"edge {e.eid!r} repeats an identical map")
            )
        seen_maps.add(key)
    for u in g.vertices:
        d = sum(1 for e in g.edges if e.src == u)
        if d < 2:
            finds.append(
                Finding("low-out-degree", f"d_{u} = {d} < 2")
            )
    return finds


def _out_map(g: GDInstance) -> dict[str, list[Edge]]:
    out: dict[str, list[Edge]] = {u: [] for u in g.vertices}
    for e in g.edges:
        out[e.src].append(e)
    for u in out:
        out[u].sort(key=lambda e: e.eid)
    return out


class HullList(NamedTuple):
    """Exact attractor hulls [min F_u, max F_u] per vertex."""

    intervals: dict[str, Interval]

    def interval(self, u: str) -> Interval:
        return self.intervals[u]

    def lo(self, u: str) -> Fraction:
        return self.intervals[u][0]

    def hi(self, u: str) -> Fraction:
        return self.intervals[u][1]

    def diameter(self, u: str) -> Fraction:
        lo, hi = self.intervals[u]
        return hi - lo


def hulls(g: GDInstance) -> HullList:
    """Exact per-vertex hulls of the attractor list, by policy iteration.

    z(u, +1) = max F_u and z(u, -1) = -min F_u solve z(u, side) = max over
    edges u -> w (ratio r, sign s, offset c) of r*z(w, s*side) + side*c.  A
    policy picks one edge per coordinate.  Its values follow the chosen
    successors to a cycle, take the fixed point of the map composed around
    it (slope below 1) and back-substitute.  A coordinate switches only to
    a strictly better edge, so no value falls and no policy comes back: the
    loop ends.  It ends at the hull identity, unique as every map contracts.
    """
    bad = validate(g)
    if bad:
        raise StructuralError("invalid instance: " + "; ".join(f.message for f in bad))
    out = _out_map(g)
    offers = {
        (u, side): [
            ((e.dst, e.sim.sign * side), AffineMap(e.sim.ratio, side * e.sim.offset))
            for e in out[u]
        ]
        for u in g.vertices
        for side in (1, -1)
    }
    policy = {x: opts[0] for x, opts in offers.items()}
    while True:
        z: dict[tuple[str, int], Fraction] = {}
        for x in policy:
            path: dict[tuple[str, int], None] = {}
            while x not in z and x not in path:
                path[x] = None
                x = policy[x][0]
            if x in path:
                walk = list(path)
                cycle = _IDENTITY
                for y in walk[walk.index(x):]:
                    cycle = cycle.compose(policy[y][1])
                z[x] = cycle.fixed_point()
            for y in reversed(path):
                if y not in z:
                    z[y] = policy[y][1](z[policy[y][0]])
        better = {}
        for x, opts in offers.items():
            best = max(opts, key=lambda o: o[1](z[o[0]]))
            if best[1](z[best[0]]) > z[x]:
                better[x] = best
        if not better:
            return HullList({u: (-z[(u, -1)], z[(u, 1)]) for u in g.vertices})
        policy.update(better)


def child_hulls(g: GDInstance, h: HullList, u: str) -> list[tuple[Edge, Interval]]:
    """Images of the child hulls at u, sorted left to right."""
    items = [(e, e.sim.image(*h.interval(e.dst))) for e in _out_map(g)[u]]
    items.sort(key=lambda ei: (ei[1][0], ei[1][1], ei[0].eid))
    return items


class OverlapWitness(NamedTuple):
    """Exact evidence that two child attractors intersect.

    kind "shared-point": `point` lies in both children.
    kind "nested": the `inner` edge's map equals the outer map composed with
    the edge path `word`, so the inner child is contained in the outer one.
    """

    kind: str
    edge_ids: tuple[str, str]
    point: Optional[Fraction] = None
    inner: Optional[str] = None
    word: tuple[str, ...] = ()


class SeparationReport(NamedTuple):
    verdict: str
    witnesses: tuple[OverlapWitness, ...] = ()
    refined_pairs: tuple[tuple[str, str, int], ...] = ()
    unresolved: tuple[tuple[str, str], ...] = ()


def separation_check(g: GDInstance, refine_depth: int = 12) -> SeparationReport:
    """Classify child separation at every vertex.

    hull_disjoint: all child hull intervals pairwise strictly disjoint
    (strictly stronger than disjoint child attractors).  ssc_certified:
    hulls overlap but refined covers separate every overlapping pair.
    overlap: an exact shared point or nesting certificate was found.
    unknown: neither separation nor intersection could be certified.
    A pair whose refined cover passes DEFAULT_INTERVAL_BUDGET intervals at
    one level stays unresolved.
    """
    return _separation_check(g, hulls(g), refine_depth)


def _separation_check(g: GDInstance, h: HullList, refine_depth: int = 12) -> SeparationReport:
    """`separation_check` on the hulls h of g, which callers that need them
    too compute once."""
    out = _out_map(g)
    witnesses: list[OverlapWitness] = []
    pending: list[tuple[Edge, Edge]] = []
    for u in g.vertices:
        ch = child_hulls(g, h, u)
        for i in range(len(ch)):
            e1, (lo1, hi1) = ch[i]
            for j in range(i + 1, len(ch)):
                e2, (lo2, hi2) = ch[j]
                if lo2 > hi1:
                    break
                if lo2 == hi1 and hi2 > hi1:
                    # hull endpoints are attractor points, so a single
                    # touching point is a genuine intersection
                    witnesses.append(
                        OverlapWitness("shared-point", (e1.eid, e2.eid), point=lo2)
                    )
                    continue
                wit = _nesting_witness(g, out, e1, (lo1, hi1), e2, (lo2, hi2))
                if wit is not None:
                    witnesses.append(wit)
                else:
                    pending.append((e1, e2))
    if not witnesses and not pending:
        return SeparationReport(HULL_DISJOINT)
    if witnesses:
        return SeparationReport(
            OVERLAP,
            witnesses=tuple(witnesses),
            unresolved=tuple((a.eid, b.eid) for a, b in pending),
        )
    refined: list[tuple[str, str, int]] = []
    unresolved: list[tuple[str, str]] = []
    for e1, e2 in pending:
        depth_found = None
        for k in range(1, refine_depth + 1):
            try:
                c1 = _cover(g, h, e1.dst, e1.sim.affine(), k, DEFAULT_INTERVAL_BUDGET)
                c2 = _cover(g, h, e2.dst, e2.sim.affine(), k, DEFAULT_INTERVAL_BUDGET)
            except ResourceError:
                break
            if _covers_disjoint(c1, c2):
                depth_found = k
                break
        if depth_found is None:
            unresolved.append((e1.eid, e2.eid))
        else:
            refined.append((e1.eid, e2.eid, depth_found))
    if unresolved:
        return SeparationReport(
            UNKNOWN, refined_pairs=tuple(refined), unresolved=tuple(unresolved)
        )
    return SeparationReport(SSC_CERTIFIED, refined_pairs=tuple(refined))


def _nesting_witness(
    g: GDInstance,
    out: dict[str, list[Edge]],
    e1: Edge,
    hull1: Interval,
    e2: Edge,
    hull2: Interval,
) -> Optional[OverlapWitness]:
    inner_first = hull1[0] >= hull2[0] and hull1[1] <= hull2[1]
    inner_second = hull2[0] >= hull1[0] and hull2[1] <= hull1[1]
    if inner_second:
        word = _find_word(g, out, outer=e1, inner=e2)
        if word is not None:
            return OverlapWitness("nested", (e1.eid, e2.eid), inner=e2.eid, word=word)
    if inner_first:
        word = _find_word(g, out, outer=e2, inner=e1)
        if word is not None:
            return OverlapWitness("nested", (e1.eid, e2.eid), inner=e1.eid, word=word)
    return None


def _find_word(
    g: GDInstance,
    out: dict[str, list[Edge]],
    outer: Edge,
    inner: Edge,
) -> Optional[tuple[str, ...]]:
    """Edge path w with S_outer . S_w == S_inner, if one exists.

    Such a word proves the inner child attractor sits inside the outer one.
    The ratio of the composition must shrink to the inner ratio exactly, so
    the search depth is bounded.
    """
    if inner.sim.ratio >= outer.sim.ratio:
        return None
    target = inner.sim.affine()
    states: dict[tuple[str, AffineMap], tuple[str, ...]] = {
        (outer.dst, outer.sim.affine()): ()
    }
    total = 0
    while states:
        nxt: dict[tuple[str, AffineMap], tuple[str, ...]] = {}
        for (v, m), word in states.items():
            for e in out[v]:
                m2 = m.compose(e.sim.affine())
                ratio2 = abs(m2.slope)
                if ratio2 < inner.sim.ratio:
                    continue
                word2 = word + (e.eid,)
                if ratio2 == inner.sim.ratio:
                    if e.dst == inner.dst and m2 == target:
                        return word2
                    continue
                nxt.setdefault((e.dst, m2), word2)
        total += len(nxt)
        if total > _STATE_BUDGET:
            return None
        states = nxt
    return None


def _cover(
    g: GDInstance,
    h: HullList,
    start: str,
    start_map: AffineMap,
    depth: int,
    budget: int,
) -> tuple[list[list[int]], int]:
    """Sorted, merged interval cover after extending the start state
    (start, start_map) by `depth` edge steps; duplicate compositions are
    collapsed level by level.  It comes as integer endpoint pairs [lo, hi]
    over one scale: each stands for [lo/scale, hi/scale], and each lo
    exceeds the hi before it.

    The walk runs on integers.  Let D be the lcm of every edge's slope and
    intercept denominators and s0 that of the start map.  After k steps
    each composed map is (S/Q, B/Q) with Q = s0*D**k and integers S, B, and
    extending it by an edge with slope s/D and intercept b/D gives
    (S*s/(Q*D), (S*b + B*D)/(Q*D)).  At a fixed Q a map has exactly one
    (S, B), so a state (vertex, S, B) collapses exactly when the rational
    composition does, and the budget sees the same counts.  With H the lcm
    of the hull endpoint denominators, every image endpoint is an integer
    over Q*H, so sorting and merging compare integers, and the scale is
    Q*H.  Nothing is rounded.
    """
    out = _out_map(g)
    big_d = math.lcm(*(x.denominator for e in g.edges for x in (e.sim.ratio, e.sim.offset)))
    s0 = math.lcm(start_map.slope.denominator, start_map.intercept.denominator)
    big_h = math.lcm(*(x.denominator for iv in h.intervals.values() for x in iv))
    steps = {
        v: [(e.dst, *_scaled(e.sim.affine(), big_d)) for e in es]
        for v, es in out.items()
    }
    states = {(start, *_scaled(start_map, s0))}
    for _ in range(depth):
        nxt: set[tuple[str, int, int]] = set()
        for v, sl, ic in states:
            shifted = ic * big_d
            for w, s, b in steps[v]:
                nxt.add((w, sl * s, sl * b + shifted))
        if len(nxt) > budget:
            raise ResourceError(
                f"interval cover exceeded its budget of {budget} intervals"
            )
        states = nxt
    ends = {
        u: ((lo * big_h).numerator, (hi * big_h).numerator)
        for u, (lo, hi) in h.intervals.items()
    }
    raw = []
    for v, sl, ic in states:
        lo, hi = ends[v]
        shifted = ic * big_h
        a, b = sl * lo + shifted, sl * hi + shifted
        raw.append((a, b) if a <= b else (b, a))
    raw.sort()
    merged: list[list[int]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged, s0 * big_d**depth * big_h


def _fractions(ends: list[list[int]], scale: int) -> tuple[Interval, ...]:
    """The intervals of a `_cover` result as exact Fractions."""
    return tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in ends)


def _scaled(m: AffineMap, q: int) -> tuple[int, int]:
    """Integer numerators of m's slope and intercept over the common
    denominator q, which the caller picks as a multiple of both."""
    return (m.slope * q).numerator, (m.intercept * q).numerator


def _covers_disjoint(
    a: tuple[list[list[int]], int], b: tuple[list[list[int]], int]
) -> bool:
    """Whether two `_cover` results share no point, compared across their
    scales by cross-multiplying."""
    (ends_a, sa), (ends_b, sb) = a, b
    i = j = 0
    while i < len(ends_a) and j < len(ends_b):
        if ends_a[i][1] * sb < ends_b[j][0] * sa:
            i += 1
        elif ends_b[j][1] * sa < ends_a[i][0] * sb:
            j += 1
        else:
            return False
    return True


def cover_intervals(
    g: GDInstance,
    u: str,
    depth: int,
    budget: int = DEFAULT_INTERVAL_BUDGET,
) -> tuple[Interval, ...]:
    """Depth-k exact interval cover of F_u (no separation requirement).

    Instances that fail separation are fine: overlapping path images are
    merged, so the result is always a disjoint union.  The images
    are those of the hull of F_u under every distinct length-k edge-path
    composition from u, built over integer numerators at the common scale
    s0*D**k*H described in `_cover`; the endpoints are exact Fractions.
    `budget` caps the distinct compositions kept at any one level.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _fractions(*_cover(g, hulls(g), u, _IDENTITY, depth, budget))


class Cover(NamedTuple):
    """A depth-k cover of F_root and the cloud sampled from it: the
    midpoints or the endpoints of its intervals, strictly increasing."""

    root: str
    depth: int
    intervals: tuple[Interval, ...]
    resolution: Fraction
    points: tuple[Fraction, ...]
    point_mode: str


def approximate(
    g: GDInstance,
    u: str,
    depth: int,
    point_mode: str = "midpoint",
    budget: int = DEFAULT_INTERVAL_BUDGET,
) -> Cover:
    """Depth-k interval cover of F_u plus a sampled point cloud.

    Requires a separated instance (hull_disjoint or ssc_certified); the
    resolution field bounds both the interval lengths and the sampling error
    by max_ratio**depth times the root hull diameter.
    """
    if point_mode not in ("midpoint", "endpoints"):
        raise ValueError(f"unknown point mode {point_mode!r}")
    h = hulls(g)
    verdict = _separation_check(g, h).verdict
    if verdict not in (HULL_DISJOINT, SSC_CERTIFIED):
        raise StructuralError(f"cover sampling requires a separated instance, got {verdict!r}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    ends, scale = _cover(g, h, u, _IDENTITY, depth, budget)
    intervals = _fractions(ends, scale)
    resolution = g.max_ratio**depth * h.diameter(u)
    # merged intervals are strictly separated, and each has positive length:
    # every vertex has at least two children with disjoint attractors, so no
    # hull is a point.  Their midpoints and their endpoints come out in order.
    if point_mode == "midpoint":
        pts = tuple(Fraction(lo + hi, 2 * scale) for lo, hi in ends)
    else:
        pts = tuple(x for iv in intervals for x in iv)
    return Cover(u, depth, intervals, resolution, pts, point_mode)


class ProductWalk:
    """States (vertex, path ratio product) reachable from (start, 1), taken
    best first by the key product * bound[vertex]; callers pass bounds that
    no edge raises, so keys shrink along every path.

    `reach(t, ...)` takes the states of key >= t reached through such states,
    resuming where the last call stopped; the start is always taken first.
    Products are reduced (numerator, denominator) int pairs, so equal
    products at one vertex merge.  `seen` holds the states taken and the
    frontier; a zero or missing bound keeps a vertex out.
    """

    def __init__(self, g: GDInstance, start: str, bound: Mapping[str, Fraction]):
        # keys are scaled into [0, 1], so that their floats cannot overflow
        self._top = Fraction(max(bound.values(), default=0) or 1)
        b = self._bound = {v: Fraction(x) / self._top for v, x in bound.items() if x > 0}
        self._steps = {
            v: [(e.dst, *e.sim.ratio.as_integer_ratio(), *b[e.dst].as_integer_ratio())
                for e in es if e.dst in b]
            for v, es in _out_map(g).items()
        }
        self.seen = {(start, 1, 1)}
        self._taken = 0
        self._heap = [(-math.inf, start, 1, 1)]  # (-float key, vertex, numerator, denominator)

    def reach(self, t: Fraction, ceiling: int, stage: str) -> list[tuple[str, int, int]]:
        """Take and return the states of key >= t not taken yet.  Taking more
        than `ceiling` states in all raises ResourceError naming `stage`, and
        the walk stays usable."""
        t = Fraction(t) / self._top
        ft = float(min(t, 2))  # no key exceeds 1, so a larger t needs no float
        heap, seen, out, held = self._heap, self.seen, [], []
        try:
            while heap and -heap[0][0] >= ft:
                item = negkey, v, n, d = heapq.heappop(heap)
                if -negkey == ft and Fraction(n, d) * self._bound[v] < t:
                    held.append(item)  # equal floats: the exact key falls short
                    continue
                if self._taken >= ceiling:
                    held.append(item)
                    raise ResourceError(f"{stage} exceeded its state budget")
                self._taken += 1
                out.append((v, n, d))
                for w, rn, rd, bn, bd in self._steps[v]:
                    n2, d2 = n * rn, d * rd
                    k = math.gcd(n2, d2)
                    state = (w, n2 // k, d2 // k)
                    if state not in seen:
                        seen.add(state)
                        heapq.heappush(heap, (-(state[1] * bn) / (state[2] * bd), *state))
        finally:
            for item in held:
                heapq.heappush(heap, item)
        return out


def path_products(
    g: GDInstance,
    u: str,
    v: str,
    floor: Fraction,
) -> set[Fraction]:
    """Ratio products of all nonempty edge paths u -> v with product >= floor.

    Distinct paths with equal products collapse.  Every ratio of a valid
    instance is below 1, so no nonempty path returns to the start state
    (u, 1), which is skipped as the empty path.
    """
    floor = Fraction(floor)
    if floor <= 0:
        raise ValueError("floor must be positive")
    walk = ProductWalk(g, u, dict.fromkeys(g.vertices, 1))
    states = walk.reach(floor, _STATE_BUDGET, "path product enumeration")
    # the start (u, 1) is the empty path; every other product is below 1
    return {Fraction(n, d) for w, n, d in states if w == v and n < d}


def hausdorff_distance(a: Sequence[Interval], b: Sequence[Interval]) -> Fraction:
    """Exact Hausdorff distance between two disjoint sorted interval unions."""
    if not a or not b:
        raise ValueError("interval unions must be nonempty")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def _directed_hausdorff(a: Sequence[Interval], b: Sequence[Interval]) -> Fraction:
    # the distance-to-b function is piecewise linear with peaks only at
    # interval endpoints of a and at midpoints of b's gaps, so checking
    # those finitely many points is exact
    a_los = [lo for lo, _ in a]
    b_los = [lo for lo, _ in b]
    candidates: list[Fraction] = []
    for lo, hi in a:
        candidates.append(lo)
        candidates.append(hi)
    for k in range(len(b) - 1):
        mid = (b[k][1] + b[k + 1][0]) / 2
        idx = bisect.bisect_right(a_los, mid) - 1
        if idx >= 0 and mid <= a[idx][1]:
            candidates.append(mid)
    return max(_point_to_union(x, b, b_los) for x in candidates)


def _point_to_union(x: Fraction, b: Sequence[Interval], b_los: list[Fraction]) -> Fraction:
    idx = bisect.bisect_right(b_los, x) - 1
    best: Optional[Fraction] = None
    if idx >= 0:
        lo, hi = b[idx]
        if x <= hi:
            return Fraction(0)
        best = x - hi
    if idx + 1 < len(b):
        d = b[idx + 1][0] - x
        if best is None or d < best:
            best = d
    assert best is not None
    return best


def iterate_ifs(g: GDInstance, n: int) -> GDInstance:
    """The IFS of all distinct length-n compositions of a one-vertex system."""
    if not g.one_vertex:
        raise ValueError("iterate_ifs is defined for one-vertex instances")
    if n < 1:
        raise ValueError("n must be at least 1")
    u = g.vertices[0]
    out = _out_map(g)
    words: dict[AffineMap, tuple[str, ...]] = {_IDENTITY: ()}
    for _ in range(n):
        nxt: dict[AffineMap, tuple[str, ...]] = {}
        for m, word in sorted(words.items(), key=lambda kv: kv[1]):
            for e in out[u]:
                m2 = m.compose(e.sim.affine())
                nxt.setdefault(m2, word + (e.eid,))
        words = nxt
    edges = []
    for m, word in sorted(words.items(), key=lambda kv: kv[1]):
        sim = Similarity1D(abs(m.slope), 1 if m.slope > 0 else -1, m.intercept)
        edges.append(Edge("*".join(word), u, u, sim))
    return GDInstance((u,), tuple(edges))


def load_instance(source: Union[str, Path, dict]) -> GDInstance:
    """Read an instance from a JSON file path or an already-parsed dict.

    Full form: {"vertices": [...], "edges": [{"id", "from", "to", "ratio",
    "sign", "offset"}]} with ratio/offset as exact rational strings and sign
    the integer 1 (the default) or -1.  One-vertex shorthand: {"ifs":
    [{"ratio", "sign", "offset"}]}.  Any other top-level key is an error.
    """
    if isinstance(source, (str, Path)):
        doc = json.loads(Path(source).read_text())
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    unknown = set(doc) - ({"ifs"} if "ifs" in doc else {"vertices", "edges"})
    if unknown:
        raise ValueError(f"instance document has unknown keys {sorted(map(str, unknown))}")
    try:
        if "ifs" in doc:
            return GDInstance.ifs([_similarity(m) for m in doc["ifs"]])
        vertices = tuple(str(v) for v in doc["vertices"])
        edges = [
            Edge(str(e.get("id", f"e{i + 1}")), str(e["from"]), str(e["to"]), _similarity(e))
            for i, e in enumerate(doc["edges"])
        ]
    except KeyError as exc:
        raise ValueError(f"instance document is missing field {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"instance document is malformed: {exc}") from exc
    return GDInstance(vertices, tuple(edges))


def _similarity(m: dict) -> Similarity1D:
    ratio, sign, offset = m["ratio"], m.get("sign", 1), m["offset"]
    # a JSON number has already been rounded to binary by the parser
    if not (isinstance(ratio, str) and isinstance(offset, str)):
        raise ValueError(f"ratio and offset must be rational strings, got {ratio!r}, {offset!r}")
    return Similarity1D(parse_rational(ratio), sign, parse_rational(offset))


def instance_to_json(g: GDInstance) -> dict:
    """Serialize an instance to the full JSON form; inverse of load_instance."""
    return {
        "vertices": list(g.vertices),
        "edges": [
            {
                "id": e.eid,
                "from": e.src,
                "to": e.dst,
                "ratio": format_rational(e.sim.ratio),
                "sign": e.sim.sign,
                "offset": format_rational(e.sim.offset),
            }
            for e in g.edges
        ],
    }
