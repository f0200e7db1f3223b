import random
from fractions import Fraction

import numpy as np
import pytest

import dustgaps
from conftest import brute_components
from dustgaps import metgaps, model
from dustgaps.metgaps import PointCloud

F = Fraction


def test_from_points_exact_dim1():
    c = PointCloud.from_points([F(1, 2), 0, F(1, 2), F(1, 3)])
    assert c.exact and c.dim == 1
    assert c.points == (F(0), F(1, 3), F(1, 2))
    assert c.n == 3


def test_from_points_float_dims():
    c = PointCloud.from_points([0.5, 0.1, 0.5])
    assert not c.exact and c.dim == 1 and c.n == 2
    c2 = PointCloud.from_points([(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    assert c2.dim == 2 and c2.n == 2
    c3 = PointCloud.from_points([(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)])
    assert c3.dim == 3 and c3.n == 2
    with pytest.raises(ValueError):
        PointCloud.from_points([])
    with pytest.raises(ValueError):
        PointCloud.from_points([(1.0, 2.0, 3.0, 4.0)])


def test_from_cover_keeps_exactness_and_resolution():
    g = model.GDInstance.ifs(
        [model.Similarity1D(F(1, 3), 1, F(0)), model.Similarity1D(F(1, 3), 1, F(2, 3))]
    )
    cover = model.approximate(g, "u", 4)
    c = PointCloud.from_cover(cover)
    assert c.exact and c.n == 16
    assert c.resolution == F(1, 81)


def test_float_cloud_distances_must_be_finite():
    for pts in ([1e308, -1e308], [(1e160, 0.0), (-1e160, 0.0), (0.0, 1.0)],
                [(1e154, 0.0, 0.0), (0.0, 1e154, 0.0), (0.0, 0.0, 0.0)], [0.0, float("nan")]):
        with pytest.raises(ValueError, match="overflow"):
            PointCloud.from_points(pts)
    # just inside: the bounding-box diagonal still measures finite
    for pts in ([8e307, -8e307], [(6e153, 0.0), (-6e153, 0.0), (0.0, 1.0)]):
        c = PointCloud.from_points(pts)
        assert np.all(np.isfinite(c.tree_weights)) and c.tree_weights[-1] > 1e153


def test_read_cloud_csv(tmp_path):
    p = tmp_path / "exact.csv"
    p.write_text("1/3\n0\n2/3\n")
    c = metgaps.read_cloud_csv(p)
    assert c.exact and c.points == (F(0), F(1, 3), F(2, 3))

    q = tmp_path / "floats.csv"
    q.write_text("0.25\n0.75\n")
    cf = metgaps.read_cloud_csv(q)
    assert not cf.exact and cf.dim == 1

    r = tmp_path / "plane.csv"
    r.write_text("0.0,1.0\n1.0,0.0\n1/2,1/2\n")
    c2 = metgaps.read_cloud_csv(r)
    assert c2.dim == 2 and c2.n == 3
    assert not c2.exact


def test_kappa_hand_examples():
    c = PointCloud.from_points([F(0), F(1, 10), F(1, 2), F(6, 10)])
    assert metgaps.kappa(c, F(1, 10)) == 2
    assert metgaps.kappa(c, F(1, 20)) == 4
    assert metgaps.kappa(c, F(1, 2)) == 1
    # closed inequality: delta exactly equal to a spacing merges it
    assert metgaps.kappa(c, F(4, 10)) == 1
    assert metgaps.kappa(c, F(39, 100)) == 2
    with pytest.raises(ValueError):
        metgaps.kappa(c, F(0))


def test_kappa_matches_brute_force_dim1_exact():
    rng = random.Random(31)
    pts = sorted({F(rng.randint(0, 400), 400) for _ in range(60)})
    c = PointCloud.from_points(pts)
    for _ in range(40):
        d = F(rng.randint(1, 100), 400)
        assert metgaps.kappa(c, d) == brute_components(list(c.points), d)


def test_kappa_matches_brute_force_higher_dims():
    rng = random.Random(37)
    for dim in (2, 3):
        pts = [tuple(rng.random() for _ in range(dim)) for _ in range(120)]
        c = PointCloud.from_points(pts)
        cpts = [tuple(row) for row in c.points]
        for _ in range(15):
            d = rng.random() * 0.4 + 1e-3
            assert metgaps.kappa(c, d) == brute_components(cpts, d)


def test_merge_heights_exact_dim1():
    c = PointCloud.from_points([F(0), F(1, 10), F(1, 2), F(6, 10)])
    prof = metgaps.merge_heights(c)
    assert prof.exact
    assert prof.heights == (F(1, 10), F(2, 5))
    assert prof.counts == (2, 1)
    assert prof.kappa_at(F(1, 20)) == 4
    assert prof.kappa_at(F(1, 10)) == 2
    assert prof.kappa_at(F(1)) == 1
    assert prof.n_points == 4


def _exact_clouds():
    # the depth-4 Cantor cover's midpoints, whose spacings tie, and seeded
    # random rationals on a coarse grid, so that spacings repeat
    cover = model.approximate(model.load_instance(dustgaps.fixture_path("cantor")), "u", 4)
    yield PointCloud.from_cover(cover)
    rng = random.Random(67)
    for n in (2, 9, 60):
        yield PointCloud.from_points([F(rng.randint(0, 40), 12) for _ in range(n)])


def test_merge_heights_dense_equals_auto_on_exact_clouds():
    for c in _exact_clouds():
        assert c.exact
        auto = metgaps.merge_heights(c)
        dense = metgaps.merge_heights(c, method="dense")
        assert dense.heights == auto.heights
        assert dense.counts == auto.counts
        assert all(type(h) is Fraction for h in dense.heights)
        # tied spacings are one height each
        assert len(dense.heights) < c.n - 1 or c.n == 2
        # each step of the profile against all-pairs union-find
        pts = list(c.points)
        assert brute_components(pts, dense.heights[0] / 2) == c.n
        for h, k in zip(dense.heights, dense.counts):
            assert brute_components(pts, h) == k


def test_merge_heights_single_point():
    prof = metgaps.merge_heights(PointCloud.from_points([F(1, 2)]))
    assert prof.heights == () and prof.n_points == 1
    assert prof.kappa_at(F(1)) == 1


def test_kappa_identity_against_profile_exact():
    rng = random.Random(41)
    pts = sorted({F(rng.randint(0, 1000), 1000) for _ in range(200)})
    c = PointCloud.from_points(pts)
    prof = metgaps.merge_heights(c)
    for _ in range(80):
        d = F(rng.randint(1, 300), 1000)
        assert metgaps.kappa(c, d) == prof.kappa_at(d)


def test_kappa_identity_against_profile_float_dims():
    rng = random.Random(43)
    for dim in (1, 2, 3):
        pts = (
            [rng.random() for _ in range(150)]
            if dim == 1
            else [tuple(rng.random() for _ in range(dim)) for _ in range(150)]
        )
        c = PointCloud.from_points(pts)
        prof = metgaps.merge_heights(c)
        for _ in range(40):
            d = rng.random() * 0.5 + 1e-6
            assert metgaps.kappa(c, d) == prof.kappa_at(d)


def test_mst_dense_matches_kruskal_oracle():
    # independent MST oracle: Kruskal over the sorted full edge list
    rng = random.Random(47)
    pts = [tuple(rng.random() for _ in range(2)) for _ in range(80)]
    c = PointCloud.from_points(pts)
    cpts = [tuple(row) for row in c.points]
    n = len(cpts)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = sum((a - b) ** 2 for a, b in zip(cpts[i], cpts[j])) ** 0.5
            edges.append((d, i, j))
    edges.sort()
    from conftest import PlainUnionFind

    uf = PlainUnionFind(n)
    weights = []
    for d, i, j in edges:
        if uf.find(i) != uf.find(j):
            uf.union(i, j)
            weights.append(d)
    prof = metgaps.merge_heights(c, method="dense")
    # compare height sets with the profile's tie tolerance
    got = list(prof.heights)
    expected = sorted(set(weights))
    assert len(got) <= len(expected)
    for h in got:
        assert any(abs(h - w) <= 1e-9 * max(1.0, w) for w in expected)


def _kruskal_weights(pts):
    """Sorted MST weights from Kruskal over every pair, each pair measured
    by metgaps._lengths."""
    from conftest import PlainUnionFind

    n = len(pts)
    ii, jj = np.triu_indices(n, k=1)
    w = metgaps._lengths(pts[ii] - pts[jj])
    uf = PlainUnionFind(n)
    weights = []
    for e in np.argsort(w, kind="stable").tolist():
        a, b = int(ii[e]), int(jj[e])
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            weights.append(w[e])
    return np.asarray(weights, dtype=np.float64)


KRUSKAL_CLOUDS = {
    "random_1d": lambda: np.random.default_rng(103).random(90),
    "random_2d": lambda: np.random.default_rng(107).random((120, 2)),
    "random_3d": lambda: np.random.default_rng(109).random((120, 3)),
    "lattice_2d": lambda: DEGENERATE_CLOUDS["lattice_70x70"]()[::37],
    "lattice_3d": lambda: np.stack(
        np.meshgrid(*[np.arange(5) * 0.1] * 3), axis=-1
    ).reshape(-1, 3),
    "zero_length_edge": lambda: DEGENERATE_CLOUDS["zero_length_edge"](),
    # |dx| in 1-D: the squares of these spacings underflow to 0
    "tiny_spacing_1d": lambda: np.array([0.0, 1e-200, 3e-200, 0.5, 2.0]),
}


@pytest.mark.parametrize("name", sorted(KRUSKAL_CLOUDS))
def test_mst_dense_bit_equal_to_kruskal(name):
    c = PointCloud.from_points(KRUSKAL_CLOUDS[name]())
    before = c.points.copy()
    dense = np.asarray(metgaps._tree_weights(c, "dense"))
    assert np.array_equal(c.points, before)
    expected = _kruskal_weights(c.points.reshape(c.n, -1))
    assert dense.tobytes() == expected.tobytes()


def test_delaunay_equals_dense_random_clouds():
    rng = random.Random(53)
    for dim in (2, 3):
        for n in (50, 400, 1200):
            pts = [tuple(rng.random() for _ in range(dim)) for _ in range(n)]
            c = PointCloud.from_points(pts)
            dense = metgaps.merge_heights(c, method="dense")
            fast = metgaps.merge_heights(c, method="delaunay")
            assert dense.heights == fast.heights
            assert dense.counts == fast.counts


def test_delaunay_equals_dense_clustered_cloud():
    # well-separated clusters: long Delaunay edges must join them
    rng = random.Random(59)
    pts = []
    for cx, cy in ((0.0, 0.0), (100.0, 0.0), (50.0, 80.0)):
        pts.extend(
            (cx + rng.random(), cy + rng.random()) for _ in range(60)
        )
    c = PointCloud.from_points(pts)
    dense = metgaps.merge_heights(c, method="dense")
    fast = metgaps.merge_heights(c, method="delaunay")
    assert dense.heights == fast.heights
    assert dense.counts == fast.counts


def _line_cloud(n, dim, noise, seed):
    rng = np.random.default_rng(seed)
    t = rng.random(n)
    pts = np.outer(t, [1.0, 3.0, -2.0][:dim]) + [0.5, 1.0, 2.0][:dim]
    pts[:, 1] += noise * rng.random(n)
    return pts


def _twins(n, seed):
    # each point with a copy a few ulps away: Qhull leaves one of the two out
    base = np.random.default_rng(seed).random((n, 2))
    return np.concatenate([base, base + 1e-15])


DEGENERATE_CLOUDS = {
    "collinear_2d": lambda: _line_cloud(metgaps._DENSE_LIMIT + 200, 2, 0.0, 71),
    "nearly_collinear_2d": lambda: _line_cloud(1500, 2, 1e-9, 73),
    "coplanar_3d": lambda: np.random.default_rng(79).random((1500, 2))
    @ np.array([[1.0, 0.3, 2.0], [0.2, 1.0, -1.0]]),
    "collinear_3d": lambda: _line_cloud(800, 3, 0.0, 83),
    "lattice_70x70": lambda: np.stack(
        np.meshgrid(np.arange(70) * 0.1, np.arange(70) * 0.1), axis=-1
    ).reshape(-1, 2),
    "near_duplicates": lambda: _twins(700, 89),
    # the squared distance of the first two points underflows to 0
    "zero_length_edge": lambda: np.array(
        [[0.0, 0.0], [1e-200, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 3.0]]
    ),
    "two_points": lambda: np.array([[0.0, 0.0], [0.3, 0.4]]),
    "three_points": lambda: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CLOUDS))
def test_delaunay_equals_dense_degenerate_clouds(name):
    c = PointCloud.from_points(DEGENERATE_CLOUDS[name]())
    dense = metgaps.merge_heights(c, method="dense")
    fast = metgaps.merge_heights(c, method="delaunay")
    assert dense.heights == fast.heights
    assert dense.counts == fast.counts


def _plane_cloud(n, seed):
    # points of x + y + z = 1: flat, and the plane misses the origin
    xy = np.random.default_rng(seed).random((n, 2))
    return np.column_stack([xy, 1 - xy.sum(axis=1)])


OFF_ORIGIN_CLOUDS = {
    # the sum behind a plain mean of these coordinates overflows
    "limit_2d": lambda: np.array([[1.5e308, 0.1], [1.5e308, 0.5], [1.5e308, 0.9], [1.5e308, 0.2]]),
    "limit_3d": lambda: np.column_stack(
        [np.full(50, 1.5e308), np.random.default_rng(131).random((50, 2))]
    ),
    "plane_3d": lambda: _plane_cloud(200, 137),
}


@pytest.mark.parametrize("name", sorted(OFF_ORIGIN_CLOUDS))
def test_delaunay_equals_dense_off_origin_clouds(name):
    c = PointCloud.from_points(OFF_ORIGIN_CLOUDS[name]())
    dense = metgaps.merge_heights(c, method="dense")
    fast = metgaps.merge_heights(c, method="delaunay")
    assert dense.heights == fast.heights
    assert dense.counts == fast.counts
    if name == "limit_2d":
        assert fast.heights == pytest.approx((0.1, 0.3, 0.4))


def test_flat_cloud_off_origin_keeps_its_rank():
    # the Delaunay path projects a flat cloud into its affine hull; a centre
    # off that hull would count one rank too many and triangulate in 3-D
    pts = _plane_cloud(200, 139)
    ii, jj = metgaps._candidate_edges(pts)
    edges = np.unique(np.minimum(ii, jj) * len(pts) + np.maximum(ii, jj))
    assert len(edges) <= 3 * len(pts) - 6  # a planar triangulation's bound


def test_auto_above_dense_limit_equals_dense():
    # the only tier-1 check of the path auto takes above the size limit
    rng = np.random.default_rng(97)
    centres = rng.random((60, 2)) * 10
    pts = np.repeat(centres, 75, axis=0) + 0.05 * rng.random((60 * 75, 2))
    c = PointCloud.from_points(pts)
    assert c.n > metgaps._DENSE_LIMIT
    auto = metgaps.merge_heights(c)
    dense = metgaps.merge_heights(c, method="dense")
    assert auto.heights == dense.heights
    assert auto.counts == dense.counts
    # kappa above the limit against a count that builds no tree: at tree
    # weights (closed inequality), one ulp below them, and between them
    w = np.asarray(c.tree_weights)
    ranks = [0, 1000, 2500, 4000, 4400] + list(range(len(w) - 8, len(w)))
    for r in ranks:
        between = (w[r] + w[r + 1]) / 2 if r + 1 < len(w) else 2 * w[r]
        for d in (w[r], np.nextafter(w[r], 0), between):
            assert metgaps.kappa(c, float(d)) == _kdtree_components(c.points, float(d))


def _kdtree_components(pts, d):
    """Components of the graph linking rows at distance <= d: every pair
    within d from a kd-tree, measured again, then csgraph."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    n = len(pts)
    # the kd-tree rounds distances its own way: query a little wider
    pairs = cKDTree(pts).query_pairs(d * (1 + 1e-9), output_type="ndarray")
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    pairs = pairs[np.sqrt((diff * diff).sum(axis=1)) <= d]
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return int(connected_components(graph, directed=False)[0])


def test_kappa_lattice_ties():
    # a holed lattice with delta exactly at the axis and diagonal spacings
    rng = random.Random(101)
    h = 0.125
    pts = [(i * h, j * h) for i in range(30) for j in range(30) if rng.random() < 0.6]
    c = PointCloud.from_points(pts)
    cpts = [tuple(row) for row in c.points]
    for d in (h, float(np.sqrt(2 * h * h)), float(np.nextafter(h, 0))):
        assert metgaps.kappa(c, d) == brute_components(cpts, d)


def test_float_tie_grouping():
    c = PointCloud.from_points([0.0, 1.0, 2.0 + 1e-15])
    prof = metgaps.merge_heights(c)
    assert len(prof.heights) == 1
    assert prof.kappa_at(prof.heights[0]) == 1


def _scalar_tie_groups(weights, n):
    """Heights and counts from the anchored tie rule, one weight at a time:
    a group takes each next weight w[j] while
    w[j] - w[anchor] <= TIE_TOLERANCE * w[j]."""
    heights, counts = [], []
    remaining = n
    k = 0
    while k < len(weights):
        j = k
        while j + 1 < len(weights) and weights[j + 1] - weights[k] <= metgaps.TIE_TOLERANCE * weights[j + 1]:
            j += 1
        heights.append(float(weights[k]))
        remaining -= j - k + 1
        counts.append(remaining)
        k = j + 1
    return tuple(heights), tuple(counts)


def _cantor_points(depth):
    pts = np.zeros(1)
    for _ in range(depth):
        pts = np.concatenate([pts / 3, 2 / 3 + pts / 3])
    return pts


def _weight_arrays():
    rng = np.random.default_rng(113)
    yield "empty", np.empty(0)
    yield "one", np.array([0.25])
    yield "duplicates", np.array([0.5] * 5 + [1.0] * 3 + [2.0])
    yield "zeros", np.array([0.0, 0.0, 0.0, 1e-300, 1e-300, 1.0])
    # adjacent steps stay inside the tolerance while the run drifts past it
    yield "drift", 1 + np.arange(50) * 0.6e-12
    yield "long_drift", 1 + np.arange(3000) * 1e-15
    yield "drift_then_gap", np.concatenate([1 + np.arange(40) * 0.3e-12, [2.0, 2.0], 3 + np.arange(30) * 0.9e-12])
    for size in (2, 17, 400):
        yield f"uniform_{size}", np.sort(rng.random(size))
        levels = rng.integers(1, 6, size) * 0.1
        jitter = 1 + rng.integers(-3, 4, size) * rng.choice([1e-16, 4e-13, 2e-12], size)
        yield f"near_ties_{size}", np.sort(levels * jitter)


@pytest.mark.parametrize("name, weights", list(_weight_arrays()), ids=lambda v: v if isinstance(v, str) else "")
def test_tie_grouping_matches_scalar_rule(name, weights, monkeypatch):
    n = len(weights) + 1
    cloud = PointCloud(1, False, np.arange(float(n)))
    monkeypatch.setattr(metgaps, "_tree_weights", lambda c, method: weights)
    prof = metgaps.merge_heights(cloud)
    assert (prof.heights, prof.counts) == _scalar_tie_groups(weights, n)
    assert all(type(h) is float for h in prof.heights)
    assert all(type(k) is int for k in prof.counts)
    if "drift" in name:
        # the anchored split ran: more than one group, fewer than weights
        assert 1 < len(prof.heights) < len(weights)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tie_grouping_matches_scalar_rule_on_clouds(dim):
    clouds = [_cantor_points(12)] if dim == 1 else []
    clouds.append(np.random.default_rng(127 + dim).random((300, dim)))
    for pts in clouds:
        c = PointCloud.from_points(pts)
        prof = metgaps.merge_heights(c)
        assert (prof.heights, prof.counts) == _scalar_tie_groups(np.asarray(c.tree_weights), c.n)


def test_merge_heights_dim1_float_identical_to_dense():
    rng = random.Random(61)
    pts = [rng.random() * 10 for _ in range(500)]
    c = PointCloud.from_points(pts)
    auto = metgaps.merge_heights(c)
    dense = metgaps.merge_heights(c, method="dense")
    assert auto.heights == dense.heights
    assert auto.counts == dense.counts


def test_metric_gaps_report():
    c = PointCloud.from_points([F(0), F(1, 10), F(1, 2), F(6, 10)])
    rep = metgaps.metric_gaps(c, F(1, 20))
    assert rep.exact
    assert rep.values == (F(2, 5), F(1, 10))
    assert rep.warnings == ()
    assert rep.to_json()["values"] == ["2/5", "1/10"]
    with pytest.raises(ValueError):
        metgaps.metric_gaps(c, F(0))
    with pytest.raises(ValueError):
        metgaps.metric_gaps(c, F(-1, 2))


def test_metric_gaps_floor_filters():
    c = PointCloud.from_points([F(0), F(1, 10), F(1, 2), F(6, 10)])
    rep = metgaps.metric_gaps(c, F(1, 5))
    assert rep.values == (F(2, 5),)


def test_metric_gaps_resolution_warning():
    g = model.GDInstance.ifs(
        [model.Similarity1D(F(1, 3), 1, F(0)), model.Similarity1D(F(1, 3), 1, F(2, 3))]
    )
    cover = model.approximate(g, "u", 4)  # resolution 1/81
    c = PointCloud.from_cover(cover)
    noisy = metgaps.metric_gaps(c, F(1, 81))
    assert noisy.warnings != ()
    clean = metgaps.metric_gaps(c, F(1, 30))
    assert clean.warnings == ()


def test_kappa_profile_json():
    c = PointCloud.from_points([F(0), F(1, 4), F(1, 2)])
    prof = metgaps.merge_heights(c)
    doc = prof.to_json()
    assert doc["points"] == 3
    assert doc["heights"] == ["1/4"]
    assert doc["counts"] == [1]
