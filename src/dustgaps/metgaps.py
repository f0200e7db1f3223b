"""Metric pipeline: component-count profiles and gap extraction for finite
point clouds.

kappa(delta) counts the classes of the chain relation "linked when distance
<= delta"; merge_heights computes the distinct heights where kappa jumps as
the edge-weight set of a minimum spanning tree (the merge height multiset is
MST-invariant, so profiles are deterministic regardless of tie-breaking).
Both read the sorted tree weights, which each cloud builds once: kappa(delta)
is n minus the number of weights <= delta.  The cloud alone selects how the
tree is built.  Dimension 1 supports exact rational coordinates and sorts
its spacings; dimensions 2 and 3 run in float64, with a relative tie
tolerance recorded whenever nearly-equal heights are grouped, and take the
tree from dense Prim or, above _DENSE_LIMIT points, from the Delaunay
triangulation.  An exact cloud is sorted, spaced and measured on Python
integers and Fractions alone.  numpy is imported only by the functions that
build or measure a float cloud, and scipy only by the Delaunay path, so
exact clouds, and the CLI, start without either.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Union

from .exactnum import format_rational, order_key, parse_rational, reduced
from .model import Cover

if TYPE_CHECKING:
    import numpy as np

TIE_TOLERANCE = 1e-12
_DENSE_LIMIT = 4096

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class PointCloud:
    """Deduplicated finite point set in dimension 1, 2, or 3.

    Exact clouds (dimension 1 only) store sorted Fractions; float clouds
    store a float64 array, sorted in dimension 1 and row-deduplicated
    otherwise.  `resolution` records the sampling error bound when the cloud
    came from an attractor cover.  `from_points` rejects a float cloud whose
    distances could overflow float64 (`_finite_spread`).  Fields are read
    only; `tree_weights` is computed once per cloud.
    """

    def __init__(
        self,
        dim: int,
        exact: bool,
        points: Union[tuple[Fraction, ...], np.ndarray],
        resolution: Optional[Union[Fraction, float]] = None,
    ) -> None:
        vars(self).update(dim=dim, exact=exact, points=points, resolution=resolution)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def tree_weights(self) -> Sequence:
        """Sorted spanning-tree weights, computed on first use and kept;
        kappa and merge_heights read them."""
        return _tree_weights(self)

    @classmethod
    def from_points(cls, pts: Iterable, resolution=None) -> "PointCloud":
        rows = list(pts)
        if not rows:
            raise ValueError("point cloud must be nonempty")
        if all(isinstance(x, (Fraction, int)) for x in rows):
            # equal values sort next to each other, so one pass drops repeats;
            # sorted keys compare as their floats unless two floats tie
            keyed = sorted(order_key(x if type(x) is Fraction else Fraction(x)) for x in rows)
            return cls(1, True, tuple(x for (_, x), _ in itertools.groupby(keyed)), resolution)
        import numpy as np

        if not isinstance(rows[0], (tuple, list, np.ndarray)):
            arr = np.unique(np.asarray(rows, dtype=np.float64))
            return cls(1, False, _finite_spread(arr), resolution)
        dim = len(rows[0])
        if dim not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {dim}")
        if any(len(r) != dim for r in rows):
            raise ValueError("points have inconsistent dimensions")
        if dim == 1:
            return cls.from_points([r[0] for r in rows], resolution)
        arr = np.unique(np.asarray(rows, dtype=np.float64), axis=0)
        return cls(dim, False, _finite_spread(arr), resolution)

    @classmethod
    def from_cover(cls, cover: Cover) -> "PointCloud":
        return cls.from_points(cover.points, resolution=cover.resolution)


def _finite_spread(arr: np.ndarray) -> np.ndarray:
    """arr itself, once the diagonal of its bounding box measures finite.
    No distance between two rows exceeds that diagonal (rounding is
    monotone), so every backend then measures every edge without overflow;
    past it, squared differences would overflow to inf, or inf - inf to nan,
    and the report would be wrong."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.ptp(arr.reshape(len(arr), -1), axis=0)
        diagonal = _lengths(extent[None, :])[0]
    if not np.isfinite(diagonal):
        raise ValueError(
            "point cloud spans too far: its distances overflow float64 "
            "(or a coordinate is not finite)"
        )
    return arr


def read_cloud_csv(source: Union[str, Path]) -> PointCloud:
    """One point per line, comma-separated coordinates.  A single column of
    exact rational tokens ("p/q" or integers) loads as an exact cloud;
    anything else loads as float64.  A cell that is not a finite number is
    a ValueError."""
    text = Path(source).read_text()
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError("cloud file contains no points")
    cells = [[c.strip() for c in r] for r in rows]

    def _tofloat(token: str) -> float:
        try:
            x = float(token)
        except ValueError:
            x = float(Fraction(token))
        if not math.isfinite(x):
            raise ValueError(f"cloud coordinate {token!r} is not finite")
        return x

    try:
        if all(len(r) == 1 for r in cells) and all(_RATIONAL_RE.match(r[0]) for r in cells):
            return PointCloud.from_points([parse_rational(r[0]) for r in cells])
        return PointCloud.from_points([tuple(_tofloat(c) for c in r) for r in cells])
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cloud file has a coordinate out of range: {exc}") from None


def kappa(cloud: PointCloud, delta) -> int:
    """Number of delta-chain classes: components of the graph linking points
    at distance <= delta (closed inequality).

    A minimum spanning tree links two points by a chain of steps <= delta
    exactly when the graph does, so kappa is n minus the number of tree
    weights <= delta, in every dimension.  The sorted weights are built once
    per cloud (`PointCloud.tree_weights`); each call is a binary search.
    """
    if cloud.n == 0:
        raise ValueError("point cloud must be nonempty")
    d = Fraction(delta) if cloud.exact else float(delta)
    if d <= 0:
        raise ValueError("delta must be positive")
    return cloud.n - bisect.bisect_right(cloud.tree_weights, d)


def _lengths(diff: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows of a difference array.  Every backend
    measures with this one formula, so equal edges get bit-equal weights."""
    import numpy as np

    return np.abs(diff[:, 0]) if diff.shape[1] == 1 else np.sqrt((diff * diff).sum(axis=1))


class KappaProfile(NamedTuple):
    """Right-continuous step description of delta -> kappa(delta).

    heights are the distinct merge heights ascending; counts[i] is kappa on
    [heights[i], heights[i+1]), and kappa below heights[0] is n_points.
    """

    n_points: int
    heights: tuple
    counts: tuple[int, ...]
    exact: bool
    tie_tolerance: Optional[float] = None

    def kappa_at(self, delta) -> int:
        d = Fraction(delta) if self.exact else float(delta)
        if d <= 0:
            raise ValueError("delta must be positive")
        idx = bisect.bisect_right(self.heights, d) - 1
        return self.n_points if idx < 0 else self.counts[idx]

    def to_json(self) -> dict:
        if self.exact:
            heights = [format_rational(h) for h in self.heights]
        else:
            heights = [float(h) for h in self.heights]
        return {
            "points": self.n_points,
            "heights": heights,
            "counts": list(self.counts),
            "tie_tolerance": self.tie_tolerance,
        }


def merge_heights(cloud: PointCloud) -> KappaProfile:
    """Merge heights of the single-linkage hierarchy, with multiplicities
    folded into the kappa step profile.

    The heights are the cloud's sorted spanning-tree weights, built once
    per cloud (`PointCloud.tree_weights`); floating-point heights closer
    than the relative tie tolerance are grouped and reported once
    (`_tie_groups`).
    """
    n = cloud.n
    if n == 0:
        raise ValueError("point cloud must be nonempty")
    weights = cloud.tree_weights
    if not cloud.exact:
        starts, ends = _tie_groups(weights)
        heights = tuple(weights[starts].tolist())
        counts = tuple((n - ends).tolist())
        return KappaProfile(n, heights, counts, False, TIE_TOLERANCE)
    heights: list = []
    counts: list[int] = []
    remaining = n
    k = 0
    while k < len(weights):
        j = bisect.bisect_right(weights, weights[k]) - 1
        heights.append(weights[k])
        remaining -= j - k + 1
        counts.append(remaining)
        k = j + 1
    return KappaProfile(n, tuple(heights), tuple(counts), True, None)


def _tie_groups(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) indices of the tie groups of the sorted
    float weights w.

    A group opens at its anchor w[k] and takes each next weight w[j] while
    w[j] - w[k] <= TIE_TOLERANCE * w[j].  Float subtraction is monotone, so
    a break between adjacent weights is a break from any anchor before it:
    the adjacent breaks, found in one vector operation, split w into runs
    that no group crosses.  A run all of whose members pass the test from
    its first weight is one group.  Only runs that drift past the tolerance
    without an adjacent break are split further, anchor by anchor.
    """
    import numpy as np

    m = len(w)
    if m == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(w[1:] - w[:-1] > TIE_TOLERANCE * w[1:]) + 1))
    ends = np.append(starts[1:], m)
    drift = w - np.repeat(w[starts], ends - starts) > TIE_TOLERANCE * w
    if not drift.any():
        return starts, ends
    split = []
    for run in np.unique(np.searchsorted(starts, np.flatnonzero(drift), side="right") - 1).tolist():
        k, end = int(starts[run]), int(ends[run])
        # the window after the anchor doubles until it holds a break or
        # reaches the run's end, so each group costs in proportion to its size
        size = 16
        while k + 1 < end:
            tail = w[k + 1 : min(k + 1 + size, end)]
            brk = np.flatnonzero(tail - w[k] > TIE_TOLERANCE * tail)
            if len(brk):
                k += 1 + int(brk[0])
                split.append(k)
                size = 16
            elif k + 1 + size < end:
                size *= 2
            else:
                break
    starts = np.union1d(starts, split)
    return starts, np.append(starts[1:], m)


def _tree_weights(cloud: PointCloud) -> Sequence:
    """Sorted minimum-spanning-tree weights of the cloud, from the backend
    its dimension and size select: the sorted spacings in dimension 1, dense
    Prim up to _DENSE_LIMIT points in dimensions 2 and 3, and the Delaunay
    MST above.  Exact clouds give a tuple of Fractions, float clouds a
    read-only array.  An exact cloud's spacings are counted as reduced
    integer pairs, so only the distinct values become Fractions and are
    sorted.
    """
    pts = cloud.points
    if cloud.exact:
        # each spacing r/s - p/q as a reduced pair, equal spacings equal pairs
        pairs = itertools.pairwise(x.as_integer_ratio() for x in pts)
        counts = Counter(reduced(r * q - p * s, q * s) for (p, q), (r, s) in pairs)
        distinct = sorted((Fraction(n, d) for n, d in counts), key=order_key)
        return tuple(
            itertools.chain.from_iterable(
                itertools.repeat(w, counts[w.numerator, w.denominator]) for w in distinct
            )
        )
    import numpy as np

    if cloud.dim == 1:
        weights = np.diff(pts)
    elif cloud.n <= _DENSE_LIMIT:
        weights = _mst_dense_float(pts)
    else:
        weights = _mst_delaunay(pts)
    weights = np.sort(weights)
    weights.setflags(write=False)
    return weights


def _mst_dense_float(pts: np.ndarray) -> np.ndarray:
    """Vectorized Prim over all pairs; the unaccelerated float reference.

    The points not yet in the tree stay packed at the front of contiguous
    coordinate columns: the point that joins is swapped with the last one,
    and every step works in place on preallocated buffers.  In dimensions 2
    and 3 the steps compare squared lengths, summed (dx^2 + dy^2) + dz^2 as
    in `_lengths`, and take sqrt once of the n - 1 chosen values; in
    dimension 1 they keep |dx|, whose square would underflow to 0 below
    spacings of about 1e-154.  The weights are bit-equal to those of
    measuring each tree edge with `_lengths`: sqrt is monotone, so a tree of
    least squared lengths is a minimum spanning tree, and every minimum
    spanning tree has the same multiset of weights, whatever order Prim
    takes the points in.
    """
    import numpy as np

    n, dim = pts.shape
    weights = np.empty(n - 1, dtype=np.float64)
    cols = [pts[1:, a].copy() for a in range(dim)]
    dist = np.full(n - 1, np.inf)
    step = np.empty(n - 1, dtype=np.float64)
    spare = np.empty(n - 1, dtype=np.float64)
    joined = pts[0]
    for t in range(n - 1):
        m = n - 1 - t
        out, tmp = step[:m], spare[:m]
        np.subtract(cols[0][:m], joined[0], out=out)
        if dim == 1:
            np.abs(out, out=out)
        else:
            np.multiply(out, out, out=out)
            for col, x in zip(cols[1:], joined[1:]):
                np.subtract(col[:m], x, out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                np.add(out, tmp, out=out)
        np.minimum(dist[:m], out, out=dist[:m])
        k = int(np.argmin(dist[:m]))
        weights[t] = dist[k]
        joined = [col[k] for col in cols]
        for col in (*cols, dist):
            col[k] = col[m - 1]
    if dim > 1:
        np.sqrt(weights, out=weights)
    return weights


def _mst_delaunay(pts: np.ndarray) -> np.ndarray:
    """MST weights via csgraph over the Delaunay edges, which contain a
    Euclidean MST (Shamos & Hoey, 1975).  Tree edges are measured again from
    the original coordinates."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    n = len(pts)
    ii, jj = _candidate_edges(pts)
    # simplices share edges, and coo_matrix would sum repeated entries
    key = np.unique(np.minimum(ii, jj).astype(np.int64) * n + np.maximum(ii, jj))
    lo, hi = key // n, key % n
    # csgraph reads a stored 0 as "no edge", and the square of a tiny
    # distance can underflow to 0
    w = np.maximum(_lengths(pts[lo] - pts[hi]), np.finfo(np.float64).smallest_subnormal)
    tree = minimum_spanning_tree(coo_matrix((w, (lo, hi)), shape=(n, n))).tocoo()
    assert tree.nnz == n - 1
    return _lengths(pts[tree.row] - pts[tree.col])


def _candidate_edges(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs whose graph contains a Euclidean MST of the rows of pts.

    Qhull rejects flat input, so the Delaunay triangulation is taken in the
    affine hull of the points (its rank from an SVD of the centred points),
    down to a sort in dimension 1.  Tiny inputs take all pairs.  Shifting by
    the first point bounds every coordinate by the cloud's extent, which
    keeps the mean finite near the float limit; the mean, unlike the
    bounding box's middle, lies in the affine hull.
    """
    import numpy as np
    from scipy.spatial import Delaunay

    n, dim = pts.shape
    if n <= dim + 1:
        return np.triu_indices(n, k=1)
    shifted = pts - pts[0]
    centred = shifted - shifted.mean(axis=0)
    _, s, vt = np.linalg.svd(centred, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * n * np.finfo(np.float64).eps))
    if rank < dim:
        return _candidate_edges(centred @ vt[:rank].T)
    if dim == 1:
        order = np.argsort(centred[:, 0], kind="stable")
        return order[:-1], order[1:]
    tri = Delaunay(centred)
    ii = [tri.simplices[:, a] for a in range(dim + 1) for b in range(a + 1, dim + 1)]
    jj = [tri.simplices[:, b] for a in range(dim + 1) for b in range(a + 1, dim + 1)]
    # Qhull leaves out points within rounding distance of a vertex; its
    # coplanar rows are (point, facet, nearest vertex).  A vertex and the
    # points left out next to it form a cluster with its own candidate edges,
    # and a Delaunay edge of the vertex links the whole cluster to the whole
    # cluster at its other end.
    cluster: dict[int, list[int]] = {}
    for p, v in zip(tri.coplanar[:, 0].tolist(), tri.coplanar[:, 2].tolist()):
        cluster.setdefault(v, [v]).append(p)
    if cluster:
        indptr, nbrs = tri.vertex_neighbor_vertices
    for v, members in cluster.items():
        group = np.asarray(members)
        si, sj = _candidate_edges(pts[group])
        ii.append(group[si])
        jj.append(group[sj])
        for u in nbrs[indptr[v] : indptr[v + 1]].tolist():
            other = np.asarray(cluster.get(u, [u]))
            ii.append(np.repeat(group, len(other)))
            jj.append(np.tile(other, len(group)))
    return np.concatenate(ii), np.concatenate(jj)


class MetricGapReport(NamedTuple):
    """Merge heights above the noise floor, sorted descending, with
    warnings when the floor sits too close to the sampling resolution."""

    noise_floor: Union[Fraction, float]
    values: tuple
    exact: bool
    warnings: tuple[str, ...] = ()
    tie_tolerance: Optional[float] = None

    def to_json(self) -> dict:
        if self.exact:
            values = [format_rational(v) for v in self.values]
            floor = format_rational(self.noise_floor)
        else:
            values = [float(v) for v in self.values]
            floor = float(self.noise_floor)
        return {
            "noise_floor": floor,
            "values": values,
            "warnings": list(self.warnings),
            "tie_tolerance": self.tie_tolerance,
        }


def metric_gaps(cloud: PointCloud, noise_floor) -> MetricGapReport:
    """Candidate gap lengths of the sampled set: merge heights strictly above
    the noise floor.  Heights at or below twice the sampling resolution are
    indistinguishable from discretization artifacts, hence the warning."""
    floor = Fraction(noise_floor) if cloud.exact else float(noise_floor)
    if floor <= 0:
        raise ValueError("noise floor must be positive")
    profile = merge_heights(cloud)
    warnings: list[str] = []
    values = tuple(h for h in reversed(profile.heights) if h > floor)
    if cloud.resolution is not None and floor <= 2 * float(cloud.resolution):
        warnings.append(
            "noise floor is within twice the sampling resolution; "
            "gaps near the floor may be sampling artifacts"
        )
    return MetricGapReport(floor, values, cloud.exact, tuple(warnings), profile.tie_tolerance)
