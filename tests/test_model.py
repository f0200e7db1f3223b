import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dustgaps
from dustgaps import model
from dustgaps.model import (
    GDInstance,
    HULL_DISJOINT,
    OVERLAP,
    ResourceError,
    SSC_CERTIFIED,
    Similarity1D,
    StructuralError,
    UNKNOWN,
)

F = Fraction


def ifs(*maps) -> GDInstance:
    return GDInstance.ifs([Similarity1D(F(r), s, F(o)) for r, s, o in maps])


CANTOR = [("1/3", 1, "0"), ("1/3", 1, "2/3")]
MIXED = [("1/2", 1, "0"), ("1/3", 1, "2/3")]


def iterated_hull(g: GDInstance, steps: int = 200) -> dict:
    """Oracle: shrink a certified enclosing interval list under the hull
    identity; the exact hull is its unique fixed point."""
    bound = max(
        abs(e.sim.offset) / (1 - e.sim.ratio) for e in g.edges
    ) + 1
    cur = {u: (F(-bound), F(bound)) for u in g.vertices}
    outs = {u: [e for e in g.edges if e.src == u] for u in g.vertices}
    for _ in range(steps):
        nxt = {}
        for u in g.vertices:
            images = [e.sim.image(*cur[e.dst]) for e in outs[u]]
            nxt[u] = (min(i[0] for i in images), max(i[1] for i in images))
        cur = nxt
    return cur


def assert_hull_consistent(g: GDInstance):
    """The hull identity holds exactly and the iteration oracle agrees."""
    h = model.hulls(g)
    for u in g.vertices:
        images = [e.sim.image(*h.interval(e.dst)) for e in g.edges if e.src == u]
        lo = min(i[0] for i in images)
        hi = max(i[1] for i in images)
        assert (lo, hi) == h.interval(u)
    approx = iterated_hull(g)
    for u in g.vertices:
        lo, hi = h.interval(u)
        alo, ahi = approx[u]
        assert alo <= lo and hi <= ahi
        assert float(lo - alo) < 1e-12 and float(ahi - hi) < 1e-12


def test_hull_cantor():
    g = ifs(*CANTOR)
    h = model.hulls(g)
    assert h.interval("u") == (F(0), F(1))
    assert h.diameter("u") == 1
    assert_hull_consistent(g)


def test_hull_mixed():
    g = ifs(*MIXED)
    assert model.hulls(g).interval("u") == (F(0), F(1))
    assert_hull_consistent(g)


def test_hull_with_reflection():
    # S1 = -x/3 + 1, S2 = x/3: hull [0, 1]
    g = ifs(("1/3", -1, "1"), ("1/3", 1, "0"))
    assert model.hulls(g).interval("u") == (F(0), F(1))
    assert_hull_consistent(g)


def test_hull_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    h = model.hulls(g)
    assert h.interval("u") == (F(0), F(1))
    assert h.interval("v") == (F(0), F(1))
    assert_hull_consistent(g)


def test_hull_shifted_scale():
    # same structure as the middle-thirds set but on [5, 11]
    g = ifs(("1/3", 1, "10/3"), ("1/3", 1, "22/3"))
    assert model.hulls(g).interval("u") == (F(5), F(11))
    assert_hull_consistent(g)


def seeded_hulls(g: GDInstance, state_budget: int = 500_000) -> dict:
    """Reference hulls by composition seeding, exponential in #V.

    Seeds each vertex with the fixed points of all edge-path compositions of
    length <= 2*#V that return to it, then closes the seed intervals under
    the hull identity.  The closure grows inside the true hulls and the
    identity has a unique fixed point, so stability certifies exactness.
    """
    out = model._out_map(g)
    limit = 2 * len(g.vertices)
    assignment = {}
    for u in g.vertices:
        candidates = []
        states = {(u, model._IDENTITY)}
        total = 0
        for _ in range(limit):
            nxt = set()
            for v, m in states:
                for e in out[v]:
                    nxt.add((e.dst, m.compose(e.sim.affine())))
            total += len(nxt)
            if total > state_budget:
                raise ResourceError("hull candidate enumeration exceeded its state budget")
            candidates.extend(m.fixed_point() for v, m in nxt if v == u)
            states = nxt
        assignment[u] = (min(candidates), max(candidates)) if candidates else None
    for _ in range(5 * len(g.vertices) + 4):
        new = {}
        for u in g.vertices:
            pieces = [
                e.sim.image(*assignment[e.dst])
                for e in out[u]
                if assignment[e.dst] is not None
            ]
            if assignment[u] is not None:
                pieces.append(assignment[u])
            new[u] = (min(p[0] for p in pieces), max(p[1] for p in pieces)) if pieces else None
        if new == assignment:
            break
        assignment = new
    else:
        raise StructuralError("hull iteration failed to stabilize")
    assert None not in assignment.values()
    return assignment


@st.composite
def signed_gd_systems(draw):
    n = draw(st.integers(1, 5))
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for u in vertices:
        # three maps per vertex only up to three vertices keeps the
        # reference's 3**(2*#V) compositions cheap
        for k in range(draw(st.integers(2, 3 if n <= 3 else 2))):
            sim = Similarity1D(
                draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 5), F(1, 4), F(3, 7)])),
                draw(st.sampled_from([1, 1, 1, -1, -1])),
                F(draw(st.integers(-9, 9)), draw(st.integers(1, 6))),
            )
            edges.append(model.Edge(f"{u}e{k}", u, draw(st.sampled_from(vertices)), sim))
    g = GDInstance(vertices, tuple(edges))
    assume(not model.validate(g))
    return g


@settings(max_examples=75, deadline=None)
@given(signed_gd_systems())
def test_hulls_match_seeded_reference(g):
    assert model.hulls(g).intervals == seeded_hulls(g)
    assert_hull_consistent(g)


def test_hulls_reject_out_degree_one():
    g = GDInstance(
        ("u", "v"),
        (
            model.Edge("a", "u", "v", Similarity1D(F(1, 3), 1, F(0))),
            model.Edge("b", "u", "u", Similarity1D(F(1, 3), 1, F(2, 3))),
            model.Edge("c", "v", "u", Similarity1D(F(1, 2), -1, F(1))),
        ),
    )
    with pytest.raises(StructuralError, match="d_v = 1 < 2"):
        model.hulls(g)


def test_hulls_random_instances(rng):
    from conftest import random_hull_disjoint

    for _ in range(50):
        g = random_hull_disjoint(rng)
        assert model.hulls(g).interval("u") == (F(0), F(1))
        assert_hull_consistent(g)


def test_validate_clean_fixtures():
    for name in ("cantor", "mixed", "iterate2-cantor", "overlap3", "gd2"):
        g = model.load_instance(dustgaps.fixture_path(name))
        assert model.validate(g) == []


def test_validate_low_out_degree():
    g = GDInstance.ifs([Similarity1D(F(1, 3), 1, F(0))])
    finds = model.validate(g)
    assert [f.code for f in finds] == ["low-out-degree"]
    assert finds[0].message == "d_u = 1 < 2"


def test_validate_not_contracting():
    g = ifs(("3/2", 1, "0"), ("1/3", 1, "2/3"))
    assert "not-contracting" in [f.code for f in model.validate(g)]


def test_validate_duplicate_map():
    g = GDInstance(
        ("u",),
        (
            model.Edge("a", "u", "u", Similarity1D(F(1, 3), 1, F(0))),
            model.Edge("b", "u", "u", Similarity1D(F(1, 3), 1, F(0))),
        ),
    )
    assert "duplicate-map" in [f.code for f in model.validate(g)]


def test_validate_structural_findings():
    g = GDInstance(
        ("u", "u"),
        (
            model.Edge("a", "u", "w", Similarity1D(F(1, 3), 1, F(0))),
            model.Edge("a", "u", "u", Similarity1D(F(1, 4), 1, F(0))),
        ),
    )
    codes = {f.code for f in model.validate(g)}
    assert "duplicate-vertex" in codes
    assert "duplicate-edge-id" in codes
    assert "bad-endpoint" in codes
    assert "no-vertices" in {f.code for f in model.validate(GDInstance((), ()))}


def test_separation_cantor_hull_disjoint():
    rep = model.separation_check(ifs(*CANTOR))
    assert rep.verdict == HULL_DISJOINT
    assert rep.witnesses == ()


def test_separation_touching_children():
    # children [0,1/2] and [1/2,1] share the attractor point 1/2
    rep = model.separation_check(ifs(("1/2", 1, "0"), ("1/2", 1, "1/2")))
    assert rep.verdict == OVERLAP
    kinds = [w.kind for w in rep.witnesses]
    assert "shared-point" in kinds
    w = next(w for w in rep.witnesses if w.kind == "shared-point")
    assert w.point == F(1, 2)


def test_separation_nested_witness():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    rep = model.separation_check(g)
    assert rep.verdict == OVERLAP
    w = next(w for w in rep.witnesses if w.kind == "nested")
    assert w.inner == "S3"
    assert w.word == ("S1",)
    # the word is an exact certificate: outer composed along it equals inner
    outer = next(e for e in g.edges if e.eid == "S1")
    inner = next(e for e in g.edges if e.eid == "S3")
    comp = outer.sim.affine()
    by_id = {e.eid: e for e in g.edges}
    for step in w.word:
        comp = comp.compose(by_id[step].sim.affine())
    assert comp == inner.sim.affine()


def test_separation_deeper_nesting_word():
    # S3 = S1 compose S2 compose S2 exactly
    g = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/27", 1, "8/27"))
    rep = model.separation_check(g)
    assert rep.verdict == OVERLAP
    w = next(w for w in rep.witnesses if w.kind == "nested")
    assert w.inner == "S3"
    assert w.word == ("S2", "S2")


def test_separation_ssc_certified_by_refinement():
    # third child's hull sits inside the first child's hull but within a
    # gap of its attractor, so depth-1 covers already separate them
    g = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/81", 1, "13/81"))
    rep = model.separation_check(g)
    assert rep.verdict == SSC_CERTIFIED
    assert rep.refined_pairs != ()


def test_separation_unknown_on_shared_endpoints_without_nesting():
    # inner child shares both hull endpoints with outer attractor points but
    # is not a composition, so no certificate exists either way
    g = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/27", 1, "7/27"))
    rep = model.separation_check(g, refine_depth=3)
    assert rep.verdict == UNKNOWN
    assert ("S1", "S3") in rep.unresolved


def test_separation_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    assert model.separation_check(g).verdict == HULL_DISJOINT


def test_child_hulls_sorted():
    g = ifs(*MIXED)
    h = model.hulls(g)
    pairs = model.child_hulls(g, h, "u")
    assert [iv for _, iv in pairs] == [(F(0), F(1, 2)), (F(2, 3), F(1))]


def test_cover_intervals_cantor():
    g = ifs(*CANTOR)
    ivs = model.cover_intervals(g, "u", 2)
    assert ivs == (
        (F(0), F(1, 9)),
        (F(2, 9), F(1, 3)),
        (F(2, 3), F(7, 9)),
        (F(8, 9), F(1)),
    )


def test_cover_merges_touching_intervals():
    # two maps tiling [0,1] exactly: every cover is the single interval [0,1]
    g = ifs(("1/2", 1, "0"), ("1/2", 1, "1/2"))
    assert model.cover_intervals(g, "u", 5) == ((F(0), F(1)),)


def test_approximate_cantor():
    g = ifs(*CANTOR)
    cov = model.approximate(g, "u", 3)
    assert len(cov.intervals) == 8
    assert cov.resolution == F(1, 27)
    assert len(cov.points) == 8
    assert cov.points[0] == F(1, 54)
    endpoints = model.approximate(g, "u", 3, point_mode="endpoints")
    assert len(endpoints.points) == 16
    assert endpoints.points[0] == F(0) and endpoints.points[-1] == F(1)


def test_approximate_requires_separation():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    with pytest.raises(StructuralError):
        model.approximate(g, "u", 4)


def test_approximate_rejects_bad_mode():
    with pytest.raises(ValueError):
        model.approximate(ifs(*CANTOR), "u", 3, point_mode="center")


def test_cover_budget_exhaustion():
    g = ifs(*CANTOR)
    with pytest.raises(ResourceError):
        model.cover_intervals(g, "u", 40, budget=500)


IDENTITY = model.AffineMap(F(1), F(0))
FIXTURES = ("cantor", "mixed", "iterate2-cantor", "overlap3", "gd2")


def reference_maps(g: GDInstance, start, depth: int) -> list:
    """Oracle: (end vertex, composed Fraction map) for every edge path of
    length `depth` after each start state, duplicates kept."""
    paths = list(start)
    for _ in range(depth):
        paths = [
            (e.dst, m.compose(e.sim.affine()))
            for v, m in paths
            for e in g.edges
            if e.src == v
        ]
    return paths


def reference_cover(g: GDInstance, start, depth: int) -> tuple:
    """Oracle: hull images along every path, sorted and merged in Fractions."""
    h = model.hulls(g)
    raw = sorted(m.image(*h.interval(v)) for v, m in reference_maps(g, start, depth))
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def plain_disjoint(a, b) -> bool:
    return all(hi1 < lo2 or hi2 < lo1 for lo1, hi1 in a for lo2, hi2 in b)


@pytest.mark.parametrize("name", FIXTURES)
def test_cover_matches_fraction_reference_fixtures(name):
    g = model.load_instance(dustgaps.fixture_path(name))
    for u in g.vertices:
        for depth in range(7):
            expected = reference_cover(g, [(u, IDENTITY)], depth)
            assert model.cover_intervals(g, u, depth) == expected, (u, depth)


def test_cover_matches_fraction_reference_reflections():
    one_vertex = ifs(("2/5", -1, "7/3"), ("1/4", 1, "-1/6"), ("1/7", -1, "5/11"))
    two_vertex = GDInstance(
        ("u", "v"),
        (
            model.Edge("e1", "u", "u", Similarity1D(F(1, 4), 1, F(0))),
            model.Edge("e2", "u", "v", Similarity1D(F(1, 4), -1, F(1))),
            model.Edge("e3", "v", "v", Similarity1D(F(1, 3), 1, F(0))),
            model.Edge("e4", "v", "u", Similarity1D(F(1, 3), -1, F(1))),
        ),
    )
    for g in (one_vertex, two_vertex):
        for u in g.vertices:
            for depth in range(6):
                expected = reference_cover(g, [(u, IDENTITY)], depth)
                assert model.cover_intervals(g, u, depth) == expected, (u, depth)


def test_cover_matches_fraction_reference_random(rng):
    from conftest import random_hull_disjoint

    for _ in range(20):
        g = random_hull_disjoint(rng)
        for depth in range(1, 5):
            expected = reference_cover(g, [("u", IDENTITY)], depth)
            assert model.cover_intervals(g, "u", depth) == expected


def reference_points(intervals, point_mode: str) -> tuple:
    """Oracle: the cover's midpoints or endpoints as a set of Fractions,
    sorted."""
    if point_mode == "midpoint":
        return tuple(sorted({(lo + hi) / 2 for lo, hi in intervals}))
    return tuple(sorted({x for iv in intervals for x in iv}))


def assert_points_match_reference(g: GDInstance, u: str, depth: int) -> None:
    for mode in ("midpoint", "endpoints"):
        cov = model.approximate(g, u, depth, point_mode=mode)
        assert cov.intervals == model.cover_intervals(g, u, depth)
        # a separated instance has no point hull, so no point interval
        assert all(lo < hi for lo, hi in cov.intervals)
        assert cov.points == reference_points(cov.intervals, mode), (u, depth, mode)


@pytest.mark.parametrize("name", FIXTURES)
def test_approximate_points_match_reference_fixtures(name):
    g = model.load_instance(dustgaps.fixture_path(name))
    if name == "overlap3":
        # not separated, so it samples no cloud; the system pruning leaves is
        g = g.without_edge("S3")
    for u in g.vertices:
        for depth in range(7):
            assert_points_match_reference(g, u, depth)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32).map(random.Random))
def test_approximate_points_match_reference_random(rng):
    from conftest import random_hull_disjoint

    g = random_hull_disjoint(rng)
    for depth in range(7):
        assert_points_match_reference(g, "u", depth)


def test_cover_budget_counts_distinct_compositions():
    # S1 . S1 == S3 in overlap3, so words collapse; in a one-vertex system
    # the distinct count never shrinks from one level to the next (composing
    # with a fixed invertible map is injective), so depth k is the peak
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    depth = 6
    distinct = len(set(reference_maps(g, [("u", IDENTITY)], depth)))
    assert distinct < 3**depth
    got = model.cover_intervals(g, "u", depth, budget=distinct)
    assert got == reference_cover(g, [("u", IDENTITY)], depth)
    with pytest.raises(ResourceError):
        model.cover_intervals(g, "u", depth, budget=distinct - 1)


@pytest.mark.parametrize(
    "maps, refined",
    [
        ((("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/81", 1, "13/81")), (("S1", "S3", 1),)),
        ((("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/243", 1, "40/729")), (("S1", "S3", 2),)),
        ((("1/3", -1, "1/3"), ("1/3", 1, "2/3"), ("1/243", -1, "43/729")), (("S1", "S3", 2),)),
    ],
)
def test_separation_refinement_matches_reference_covers(maps, refined):
    g = ifs(*maps)
    rep = model.separation_check(g)
    assert rep.verdict == SSC_CERTIFIED
    assert rep.refined_pairs == refined
    # the refinement covers start from each child's own map, not the identity
    by_id = {e.eid: e for e in g.edges}

    def child_cover(eid, k):
        e = by_id[eid]
        return reference_cover(g, [(e.dst, e.sim.affine())], k)

    for a, b, found in refined:
        for k in range(1, found):
            assert not plain_disjoint(child_cover(a, k), child_cover(b, k))
        assert plain_disjoint(child_cover(a, found), child_cover(b, found))


def bfs_path_products(g: GDInstance, u: str, v: str, floor: Fraction) -> set:
    """Oracle: expand all edge paths breadth-first, keep products >= floor."""
    out = set()
    frontier = [(u, F(1))]
    while frontier:
        nxt = []
        for node, prod in frontier:
            for e in g.edges:
                if e.src != node:
                    continue
                p = prod * e.sim.ratio
                if p < floor:
                    continue
                if e.dst == v:
                    out.add(p)
                nxt.append((e.dst, p))
        frontier = nxt
    return out


def test_path_products_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    for src, dst in (("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")):
        got = model.path_products(g, src, dst, F(1, 200))
        assert got == bfs_path_products(g, src, dst, F(1, 200))


def test_path_products_random(rng):
    from conftest import random_hull_disjoint

    for _ in range(10):
        g = random_hull_disjoint(rng)
        got = model.path_products(g, "u", "u", F(1, 100))
        assert got == bfs_path_products(g, "u", "u", F(1, 100))


def test_path_products_floor_within_float_rounding():
    # floors a hair above a product round to the same float as it; the
    # product must still be left out
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    for floor in (F(1, 9) + F(1, 10**30), F(1, 4) - F(1, 10**30), F(1, 12) + F(1, 10**40)):
        for src, dst in (("u", "u"), ("u", "v"), ("v", "u"), ("v", "v")):
            assert model.path_products(g, src, dst, floor) == bfs_path_products(g, src, dst, floor)


def test_hausdorff_examples():
    a = ((F(0), F(1)),)
    b = ((F(0), F(1, 3)), (F(2, 3), F(1)))
    assert model.hausdorff_distance(a, b) == F(1, 6)
    assert model.hausdorff_distance(b, b) == F(0)
    far = ((F(2), F(3)),)
    assert model.hausdorff_distance(a, far) == F(2)
    with pytest.raises(ValueError):
        model.hausdorff_distance(a, ())


def test_hausdorff_cover_depths_converge():
    g = ifs(*CANTOR)
    c3 = model.cover_intervals(g, "u", 3)
    c6 = model.cover_intervals(g, "u", 6)
    d = model.hausdorff_distance(c3, c6)
    assert F(0) < d <= F(1, 27)


def test_iterate_ifs_matches_fixture():
    g = ifs(*CANTOR)
    g2 = model.iterate_ifs(g, 2)
    fixture = model.load_instance(dustgaps.fixture_path("iterate2-cantor"))
    assert {e.sim for e in g2.edges} == {e.sim for e in fixture.edges}
    with pytest.raises(ValueError):
        model.iterate_ifs(g, 0)


def test_iterate_preserves_attractor_hull_and_gaps():
    g = ifs(*MIXED)
    g2 = model.iterate_ifs(g, 2)
    assert model.hulls(g2).interval("u") == (F(0), F(1))
    # the iterate's depth-2 cover equals the original's depth-4 cover
    assert model.cover_intervals(g2, "u", 2) == model.cover_intervals(g, "u", 4)


def test_load_instance_roundtrip(tmp_path):
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    doc = model.instance_to_json(g)
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(doc))
    g2 = model.load_instance(p)
    assert g2 == g


def test_load_instance_shorthand_defaults():
    g = model.load_instance({"ifs": [{"ratio": "1/3", "offset": "0"},
                                     {"ratio": "1/3", "offset": "2/3", "sign": -1}]})
    assert g.vertices == ("u",)
    assert [e.eid for e in g.edges] == ["S1", "S2"]
    assert g.edges[1].sim.sign == -1


def test_load_instance_errors():
    with pytest.raises(ValueError):
        model.load_instance({"edges": []})
    with pytest.raises(ValueError):
        model.load_instance({"vertices": ["u"], "edges": [{"from": "u", "to": "u"}]})
    with pytest.raises(ValueError):
        model.load_instance([1, 2, 3])


def test_similarity_guards():
    s = Similarity1D(1, 1, 0)
    assert type(s.ratio) is F and type(s.offset) is F
    for ratio in (F(-1, 2), F(0)):
        with pytest.raises(ValueError):
            Similarity1D(ratio, 1, F(0))
    with pytest.raises(ValueError):
        Similarity1D(F(1, 2), 2, F(0))
    # only the int 1 or -1: a float or bool sign would carry a float into
    # the exact covers
    for sign in (1.0, -1.0, True, "1", None):
        with pytest.raises(ValueError, match="sign must be the integer 1 or -1"):
            Similarity1D(F(1, 3), sign, F(0))


def test_affine_compose_and_fixed_point():
    s1 = Similarity1D(F(1, 3), 1, F(2, 3)).affine()
    assert s1.fixed_point() == F(1)
    s2 = Similarity1D(F(1, 3), -1, F(1)).affine()
    comp = s1.compose(s2)
    assert comp.slope == F(-1, 9)
    assert comp(F(0)) == s1(s2(F(0)))
