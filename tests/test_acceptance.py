"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single PASS/FAIL line with
its runtime so the suite doubles as a release checklist.  Oracles here are
deliberately naive: interval-complement scans, exhaustive product scans,
all-pairs union-find sweeps, dense MSTs.
"""

import bisect
import json
import random
import time
from fractions import Fraction

import numpy as np

import dustgaps
from conftest import PlainUnionFind, cover_complement_gaps, random_hull_disjoint
from dustgaps import analysis, cli, metgaps, model, symgaps

F = Fraction

CANTOR = str(dustgaps.fixture_path("cantor"))
MIXED = str(dustgaps.fixture_path("mixed"))
ITER2 = str(dustgaps.fixture_path("iterate2-cantor"))
OVERLAP3 = str(dustgaps.fixture_path("overlap3"))
GD2 = str(dustgaps.fixture_path("gd2"))


def _line(capsys, n, status, label, dt):
    with capsys.disabled():
        print(f"[criterion {n}] {status}: {label} ({dt:.2f}s)")


def _run(capsys, n, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        _line(capsys, n, "FAIL", label, time.perf_counter() - t0)
        raise
    dt = time.perf_counter() - t0
    ok = dt < budget
    _line(capsys, n, "PASS" if ok else "FAIL", label, dt)
    assert ok, f"criterion {n} took {dt:.2f}s, budget {budget:.0f}s"


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _cli_json(capsys, *argv):
    code, out = _cli(capsys, *argv)
    return code, json.loads(out)


def test_criterion_1_cantor_exact_pipeline(capsys):
    def body():
        code, out = _cli(
            capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100", "--format", "csv"
        )
        assert code == 0
        assert out == "1/3\n1/9\n1/27\n1/81\n"
        g = model.load_instance(CANTOR)
        oracle = cover_complement_gaps(g, "u", F(1, 100))
        assert oracle == [F(1, 3), F(1, 9), F(1, 27), F(1, 81)]
        code, doc = _cli_json(capsys, "algdep", CANTOR, "--from-ifs")
        assert code == 0 and doc["result"]["dependence_number"] == 0
        code, doc = _cli_json(capsys, "algdep", CANTOR, "--from-gaps")
        assert code == 0 and doc["result"]["dependence_number"] == 0
        code, doc = _cli_json(capsys, "bound", CANTOR)
        assert code == 0 and doc["result"]["lower_bound"] == 1

    _run(capsys, 1, "cantor gaps/algdep/bound against interval oracle", 1.0, body)


def test_criterion_2_mixed_exact_pipeline(capsys):
    def body():
        code, doc = _cli_json(capsys, "gaps", MIXED, "--exact", "--cutoff", "1/40")
        assert code == 0
        got = [F(v) for v in doc["result"]["values"]]
        assert got == [F(1, 6), F(1, 12), F(1, 18), F(1, 24), F(1, 36)]
        # oracle: exhaustive scan of (1/6) * 2^-a * 3^-b above the cutoff
        scan = sorted(
            {
                F(1, 6) / (2**a * 3**b)
                for a in range(8)
                for b in range(6)
                if F(1, 6) / (2**a * 3**b) >= F(1, 40)
            },
            reverse=True,
        )
        assert got == scan
        code, doc = _cli_json(capsys, "verify", MIXED, "--yzx")
        assert code == 0
        assert doc["result"]["status"] == "pass"
        assert doc["result"]["summary"] == "dependence 1 = 1"
        code, doc = _cli_json(capsys, "bound", MIXED)
        assert code == 0
        assert doc["result"]["lower_bound"] == 2
        assert doc["result"]["lower_bound"] == len(model.load_instance(MIXED).edges)

    _run(capsys, 2, "mixed gaps/yzx/bound against product-scan oracle", 1.0, body)


def test_criterion_3_commensurability(capsys):
    def body():
        code, doc = _cli_json(capsys, "verify", CANTOR, "--commensurability", ITER2)
        assert code == 0
        assert doc["result"]["status"] == "pass"
        (row,) = doc["result"]["details"]["x_in_cone_a"]
        assert row["coefficients"] == ["2"]
        (row,) = doc["result"]["details"]["a_in_cone_x"]
        assert row["coefficients"] == ["1/2"]
        code, doc = _cli_json(
            capsys,
            "verify",
            "--commensurability",
            "--ratios-a",
            "1/2",
            "--ratios-b",
            "1/3",
        )
        assert code == 1
        assert doc["result"]["status"] == "fail"
        assert "counterexample" in doc["result"]["summary"]

    _run(capsys, 3, "commensurability witnesses 2 and 1/2 plus negative control", 1.0, body)


def test_criterion_4_metric_matches_symbolic(capsys):
    def body():
        code, doc = _cli_json(
            capsys, "gaps", MIXED, "--metric", "--noise-floor", "1/100"
        )
        assert code == 0
        metric = [F(v) for v in doc["result"]["values"]]
        code, doc = _cli_json(capsys, "gaps", MIXED, "--exact", "--cutoff", "1/100")
        assert code == 0
        exact = [F(v) for v in doc["result"]["values"]]
        tol = 2 * F(1, 2**12)
        assert len(metric) == len(exact)
        for m, e in zip(metric, exact):
            assert abs(m - e) <= tol, (m, e)

    _run(capsys, 4, "depth-12 cloud heights match exact gaps one-to-one", 2.0, body)


def _pair_sweep(n, dist, iu, ju, deltas):
    """Kruskal/union-find sweep over ascending pair distances; returns the
    component count at each delta (ascending) and the MST weights found."""
    uf = PlainUnionFind(n)
    mst = []
    counts = []
    k = 0
    m = len(dist)
    for d in deltas:
        while k < m and dist[k] <= d:
            if uf.union(int(iu[k]), int(ju[k])):
                mst.append(dist[k])
            k += 1
        counts.append(uf.count)
    return counts, mst


def _float_pairs(arr):
    pts = arr if arr.ndim == 2 else arr.reshape(-1, 1)
    n, dim = pts.shape
    iu, ju = np.triu_indices(n, k=1)
    diff = pts[iu] - pts[ju]
    dist = np.abs(diff[:, 0]) if dim == 1 else np.sqrt((diff * diff).sum(axis=1))
    order = np.argsort(dist, kind="stable")
    return dist[order], iu[order], ju[order]


def test_criterion_5_kappa_identities(capsys):
    def body():
        rng = random.Random(20260818)
        plan = []
        for _ in range(50):
            plan.append(("exact", rng.randint(5, 80), 1))
        for _ in range(110):
            plan.append(("float", rng.randint(10, 150), rng.choice((1, 2, 3))))
        for _ in range(30):
            plan.append(("float", rng.randint(200, 400), rng.choice((2, 3))))
        for _ in range(8):
            plan.append(("float", rng.randint(600, 1000), rng.choice((2, 3))))
        plan.append(("float", 1500, 1))
        plan.append(("float", 2000, 1))
        assert len(plan) == 200
        checks = 0
        for kind, n, dim in plan:
            if kind == "exact":
                ticks = rng.sample(range(0, 8001), n)
                cloud = metgaps.PointCloud.from_points(
                    [F(t, 8000) for t in ticks]
                )
                pts = cloud.points
                pairs = sorted(
                    (pts[j] - pts[i], i, j)
                    for i in range(cloud.n)
                    for j in range(i + 1, cloud.n)
                )
                dist = [p[0] for p in pairs]
                iu = [p[1] for p in pairs]
                ju = [p[2] for p in pairs]
                span = pts[-1] - pts[0]
                deltas = sorted(
                    [span * F(rng.randint(1, 997), 2991) for _ in range(97)]
                    + [F(1, 10**9), span / 2, span + 1]
                )
            else:
                if dim == 1:
                    raw = [rng.random() for _ in range(n)]
                else:
                    raw = [tuple(rng.random() for _ in range(dim)) for _ in range(n)]
                cloud = metgaps.PointCloud.from_points(raw)
                dist, iu, ju = _float_pairs(np.asarray(cloud.points))
                deltas = sorted(
                    [rng.uniform(1e-9, 0.4) for _ in range(97)]
                    + [1e-12, 0.9, float(dim) + 1.0]
                )
            counts, mst = _pair_sweep(cloud.n, dist, iu, ju, deltas)
            for d, c in zip(deltas, counts):
                kap = metgaps.kappa(cloud, d)
                assert kap == c, (kind, n, dim, d)
                assert kap == cloud.n - bisect.bisect_right(mst, d)
                checks += 1
        assert checks == 20000

    _run(capsys, 5, "kappa equals union-find sweep and MST formula, 200 clouds", 60.0, body)


def test_criterion_6_sandwich_on_random_instances(capsys):
    def body():
        rng = random.Random(20260818)
        floor = F(1, 1000)
        sizes = set()
        total_thetas = 0
        for _ in range(50):
            g = random_hull_disjoint(rng)
            sizes.add(len(g.edges))
            s = symgaps.build(g)
            enum = symgaps.enumerate_gaps(s, floor)
            threshold = symgaps.natural_delta(s)
            for theta in enum.values:
                if theta >= threshold:
                    continue
                v = analysis.verify_sandwich(g, s, theta, floor)
                assert v.status == analysis.PASS, (g.edges, theta, v.summary)
                total_thetas += 1
        assert sizes == {2, 3, 4}
        assert total_thetas >= 200  # the property was not vacuous

    _run(capsys, 6, "sandwich holds for every eligible theta, 50 instances", 120.0, body)


def test_criterion_7_graph_directed_inequality(capsys):
    def body():
        g = model.load_instance(GD2)
        ifs_rep = analysis.algdep_of_ifs(g)
        assert ifs_rep.independence_number == 2
        s = symgaps.build(g, root="u")
        enum = symgaps.enumerate_gaps(s, F(1, 1000))
        threshold = symgaps.natural_delta(s)
        theta = next(v for v in enum.values if v < threshold)
        gaps_rep = analysis.algdep_from_gaps(
            analysis.ratios_of(enum, theta, symbolic=s)
        )
        assert gaps_rep.independence_number <= ifs_rep.independence_number
        v = analysis.verify_intrinsic_dependence(g, root="u")
        assert v.status == analysis.PASS
        # symbolic enumeration against the interval-complement oracle,
        # whose cover is refined until resolution < cutoff/4
        for cutoff in (F(1, 40), F(1, 100)):
            enum_c = symgaps.enumerate_gaps(s, cutoff)
            assert list(enum_c.values) == cover_complement_gaps(g, "u", cutoff)

    _run(capsys, 7, "gd2 gap-side dimension bound and oracle agreement", 5.0, body)


def test_criterion_8_pruning(capsys):
    def body():
        g = model.load_instance(OVERLAP3)
        res = analysis.prune_to_ssc(g, full_measure_asserted=True)
        assert len(res.pruned.edges) == 2
        assert len(res.removals) == 1
        assert res.removals[0].word == ("S1",)
        assert res.hausdorff_bound == F(2, 3**10)
        assert res.hausdorff_distance <= F(2, 3**10)
        assert res.separation == model.HULL_DISJOINT

    _run(capsys, 8, "overlap3 prunes to 2 maps within the cover tolerance", 1.0, body)


def test_criterion_9_large_cloud_performance(capsys):
    def body():
        k = 20
        idx = np.arange(1 << k, dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(k)) & 1).astype(np.float64)
        scales = 2.0 / 3.0 ** np.arange(1, k + 1)
        pts = bits @ scales
        cloud = metgaps.PointCloud.from_points(pts)
        assert cloud.n == 1 << k
        t0 = time.perf_counter()
        profile = metgaps.merge_heights(cloud)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"merge_heights took {elapsed:.2f}s"
        assert profile.n_points == 1 << k
        sub = np.random.default_rng(20260818).choice(pts, size=10_000, replace=False)
        small = metgaps.PointCloud.from_points(sub)
        dense = np.sort(metgaps._mst_dense_float(small.points.reshape(small.n, 1)))
        assert np.asarray(small.tree_weights).tobytes() == dense.tobytes()

    _run(capsys, 9, "million-point merge heights and dense cross-check", 60.0, body)
