from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dustgaps
from conftest import cover_complement_gaps, random_hull_disjoint
from dustgaps import model, symgaps
from dustgaps.model import Similarity1D
from dustgaps.symgaps import UnsupportedInstanceError

F = Fraction


def ifs(*maps):
    return model.GDInstance.ifs([Similarity1D(F(r), s, F(o)) for r, s, o in maps])


CANTOR = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"))
MIXED = ifs(("1/2", 1, "0"), ("1/3", 1, "2/3"))
GD2 = model.load_instance(dustgaps.fixture_path("gd2"))
# four maps with unrelated ratios, so realizing paths merge rarely
FOUR = ifs(("3/8", -1, "3/8"), ("1/7", -1, "199/360"), ("1/8", -1, "46/63"), ("1/5", -1, "1"))


def build(g, root=None):
    return symgaps.build(g, root=root)


def test_build_level0_cantor():
    s = build(CANTOR)
    assert s.level0 == {"u": (F(1, 3),)}
    assert symgaps.natural_delta(s) == F(1, 3)


def test_build_level0_mixed():
    s = build(MIXED)
    assert s.level0 == {"u": (F(1, 6),)}
    assert symgaps.natural_delta(s) == F(1, 6)


def test_build_level0_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    s = build(g, root="u")
    assert s.level0 == {"u": (F(1, 2),), "v": (F(1, 3),)}
    assert s.reachable == ("u", "v")
    assert symgaps.natural_delta(s) == F(1, 3)


def test_build_requires_hull_disjoint():
    overlapping = model.load_instance(dustgaps.fixture_path("overlap3"))
    with pytest.raises(UnsupportedInstanceError):
        build(overlapping)
    # separated but not hull-disjoint: still refused by the exact pipeline
    ssc_only = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/81", 1, "13/81"))
    assert model.separation_check(ssc_only).verdict == model.SSC_CERTIFIED
    with pytest.raises(UnsupportedInstanceError):
        build(ssc_only)


def test_enumerate_cantor_frozen():
    s = build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 100))
    assert enum.values == (F(1, 3), F(1, 9), F(1, 27), F(1, 81))
    assert enum.cutoff == F(1, 100)


def test_enumerate_mixed_frozen():
    s = build(MIXED)
    assert symgaps.enumerate_gaps(s, F(1, 40)).values == (
        F(1, 6),
        F(1, 12),
        F(1, 18),
        F(1, 24),
        F(1, 36),
    )
    # at 1/100 the extra values are 1/(6m) for smooth m <= 16
    assert symgaps.enumerate_gaps(s, F(1, 100)).values == tuple(
        F(1, 6 * m) for m in (1, 2, 3, 4, 6, 8, 9, 12, 16)
    )


def test_enumerate_mixed_oracle_scan():
    # every gap is (1/6) * 2^-a 3^-b; exhaustive scan oracle
    s = build(MIXED)
    cutoff = F(1, 500)
    expected = sorted(
        {
            F(1, 6) * F(1, 2**a) * F(1, 3**b)
            for a in range(12)
            for b in range(8)
            if F(1, 6) * F(1, 2**a) * F(1, 3**b) >= cutoff
        },
        reverse=True,
    )
    assert list(symgaps.enumerate_gaps(s, cutoff).values) == expected


def test_enumerate_gd2_frozen():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    s = build(g, root="u")
    assert symgaps.enumerate_gaps(s, F(1, 3)).values == (F(1, 2),)
    assert symgaps.enumerate_gaps(s, F(1, 30)).values == (
        F(1, 2),
        F(1, 8),
        F(1, 12),
        F(1, 24),
    )
    # largest gap below 1/3 is 1/8
    below = [v for v in symgaps.enumerate_gaps(s, F(1, 30)).values if v < F(1, 3)]
    assert below[0] == F(1, 8)


def test_enumerate_matches_cover_complement_fixtures():
    for g, root, cutoff in (
        (CANTOR, "u", F(1, 100)),
        (MIXED, "u", F(1, 100)),
        (model.load_instance(dustgaps.fixture_path("gd2")), "u", F(1, 40)),
        (model.load_instance(dustgaps.fixture_path("gd2")), "v", F(1, 40)),
    ):
        s = build(g, root=root)
        got = list(symgaps.enumerate_gaps(s, cutoff, root=root).values)
        assert got == cover_complement_gaps(g, root, cutoff)


def test_enumerate_matches_cover_complement_random(rng):
    for _ in range(12):
        g = random_hull_disjoint(rng)
        s = build(g)
        cutoff = F(1, 60)
        got = list(symgaps.enumerate_gaps(s, cutoff).values)
        assert got == cover_complement_gaps(g, "u", cutoff)


def test_enumerate_monotone_in_cutoff():
    s = build(MIXED)
    fine = symgaps.enumerate_gaps(s, F(1, 200)).values
    coarse = symgaps.enumerate_gaps(s, F(1, 20)).values
    assert coarse == tuple(v for v in fine if v >= F(1, 20))


def test_recursive_identity_gd2():
    # gaps at u split into level-0 spacings and edge-rescaled child gaps
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    s = build(g, root="u")
    cutoff = F(1, 50)
    direct = set(symgaps.enumerate_gaps(s, cutoff, root="u").values)
    rebuilt = {v for v in s.level0["u"] if v >= cutoff}
    for e in g.edges:
        if e.src != "u":
            continue
        child = symgaps.enumerate_gaps(s, cutoff / e.sim.ratio, root=e.dst).values
        rebuilt.update(e.sim.ratio * x for x in child)
    assert direct == rebuilt


def test_walks_ignore_vertices_unreachable_from_root():
    # w maps into u but u never reaches w, so w adds no gaps at u
    g = model.load_instance(
        {
            "vertices": ["u", "w"],
            "edges": [
                {"id": "a", "from": "u", "to": "u", "ratio": "1/3", "offset": "0"},
                {"id": "b", "from": "u", "to": "u", "ratio": "1/3", "offset": "2/3"},
                {"id": "c", "from": "w", "to": "w", "ratio": "1/4", "offset": "0"},
                {"id": "d", "from": "w", "to": "u", "ratio": "1/3", "offset": "2/3"},
            ],
        }
    )
    s = build(g, root="u")
    assert s.reachable == ("u",)
    assert symgaps.enumerate_gaps(s, F(1, 100)).values == (F(1, 3), F(1, 9), F(1, 27), F(1, 81))
    assert symgaps.realization_vertices(s, F(1, 27)) == ("u",)


def test_walks_on_values_beyond_float_range():
    # cantor stretched by 10**400: every key and query is past the largest
    # float, and a query a hair off a gap rounds to the same float as it
    big = 10**400
    s = build(ifs(("1/3", 1, "0"), ("1/3", 1, str(F(2, 3) * big))))
    assert symgaps.enumerate_gaps(s, F(big, 100)).values == tuple(F(big, 3**k) for k in range(1, 5))
    assert symgaps.realization_vertices(s, F(big, 3**7)) == ("u",)
    assert symgaps.realization_vertices(s, F(big, 3**7) + 1) == ()
    assert symgaps.enumerate_gaps(s, F(big, 81) + 1).values == (F(big, 3), F(big, 9), F(big, 27))


def test_enumeration_budget():
    s = build(MIXED)
    with pytest.raises(model.ResourceError):
        symgaps.enumerate_gaps(s, F(1, 10**9), budget=50)


def test_contains_and_realization():
    s = build(CANTOR)
    for k in range(1, 12):
        assert symgaps.contains(s, F(1, 3**k))
    assert not symgaps.contains(s, F(1, 2))
    assert not symgaps.contains(s, F(2, 3))
    assert not symgaps.contains(s, F(1, 6))
    with pytest.raises(ValueError):
        symgaps.contains(s, F(0))

    g = model.load_instance(dustgaps.fixture_path("gd2"))
    sg = build(g, root="u")
    assert symgaps.realization_vertices(sg, F(1, 2)) == ("u",)
    assert symgaps.realization_vertices(sg, F(1, 12)) == ("v",)
    assert symgaps.realization_vertices(sg, F(1, 24)) == ("u",)
    assert symgaps.realization_vertices(sg, F(1, 5)) == ()
    # 1/8: path e1 into u (product 1/4) times the level-0 gap 1/2 at u
    assert symgaps.contains(sg, F(1, 8))


def dfs_product_states(g, start, bound, threshold):
    """Reference walk: every (vertex, path product) state reachable from
    (start, 1) through states with product * bound >= threshold, depth
    first over plain Fractions."""
    seen = {(start, F(1))}
    stack = [(start, F(1))]
    while stack:
        v, r = stack.pop()
        for e in g.edges:
            state = (e.dst, r * e.sim.ratio)
            if e.src == v and state[1] * bound >= threshold and state not in seen:
                seen.add(state)
                stack.append(state)
    return seen


def reference_realization(s, x):
    # one bound for every vertex, the largest spacing anywhere: it prunes
    # less than the per-vertex bound, so it misses no realizing path
    bound = max(sp for sps in s.level0.values() for sp in sps)
    states = dfs_product_states(s.graph, s.root, bound, x)
    return tuple(sorted({v for v, r in states if any(r * sp == x for sp in s.level0[v])}))


_SYSTEMS = {"cantor": CANTOR, "mixed": MIXED, "gd2": GD2, "four": FOUR}
_MEMBERS = {
    name: symgaps.enumerate_gaps(build(g), F(1, 10**4)).values for name, g in _SYSTEMS.items()
}


@st.composite
def _queries(draw, name):
    """Members, non-members and ladders x * r**k below the floor, deep and
    shallow in any order."""
    g, members = _SYSTEMS[name], _MEMBERS[name]
    member = st.sampled_from(members)
    ladder = st.tuples(member, st.sampled_from(g.ratio_set()), st.integers(1, 6)).map(
        lambda t: t[0] * t[1] ** t[2]
    )
    near = st.tuples(member, st.integers(2, 9)).map(lambda t: t[0] * t[1] / (t[1] + 1))
    other = st.fractions(F(1, 10**7), F(1), max_denominator=10**7)
    return draw(st.lists(st.one_of(member, ladder, near, other), min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_membership_walk_resumes_like_fresh_walks(data):
    name = data.draw(st.sampled_from(sorted(_SYSTEMS)))
    s = build(_SYSTEMS[name])  # reused by every query below
    for x in data.draw(_queries(name)):
        got = symgaps.realization_vertices(s, x)
        assert got == symgaps.realization_vertices(build(_SYSTEMS[name]), x)
        assert got == reference_realization(s, x)


def test_membership_state_ceiling(monkeypatch):
    # the membership walk shares enumerate_gaps' default ceiling of
    # 8 * DEFAULT_VALUE_BUDGET states, read at call time
    deep = F(1, 3**11)  # 11 states from the root down to it
    monkeypatch.setattr(symgaps, "DEFAULT_VALUE_BUDGET", 1)
    s = build(CANTOR)
    with pytest.raises(model.ResourceError, match="gap membership"):
        symgaps.realization_vertices(s, deep)
    with pytest.raises(model.ResourceError, match="gap membership"):
        symgaps.contains(s, deep)
    # shallow values stay within the ceiling
    assert symgaps.realization_vertices(s, F(1, 9)) == ("u",)
    monkeypatch.setattr(symgaps, "DEFAULT_VALUE_BUDGET", 2)
    assert symgaps.realization_vertices(s, deep) == ("u",)
    assert symgaps.contains(s, deep)
    # the walk resumed after its overrun answers as the reference does
    for x in (F(1, 3), F(1, 3**10), F(2, 3**11), F(1, 2 * 3**9), F(1, 3**12)):
        assert symgaps.realization_vertices(s, x) == reference_realization(s, x)


def test_residual_split_cantor():
    s = build(CANTOR)
    split = symgaps.residual_split(s, F(1, 3))
    assert split.gamma == (F(1, 3),)
    assert split.tails == {"u": (F(1, 9),)}


def test_residual_split_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    s = build(g, root="u")
    split = symgaps.residual_split(s, F(1, 3))
    assert split.gamma == (F(1, 2),)
    assert split.tails["u"] == (F(1, 8), F(1, 12))
    assert split.tails["v"] == (F(1, 6), F(1, 9))
    # every tail value is a genuine gap of its own vertex
    for v, vals in split.tails.items():
        sv = build(g, root=v)
        for t in vals:
            assert t < F(1, 3)
            assert symgaps.contains(sv, t)


def test_cycle_products_gd2():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    s = build(g, root="u")
    assert symgaps.cycle_products(s, "u", F(1, 20)) == frozenset(
        {F(1, 4), F(1, 12), F(1, 16)}
    )
    assert symgaps.cycle_products(s, "v", F(1, 15)) == frozenset(
        {F(1, 3), F(1, 9), F(1, 12)}
    )


def test_cycle_products_cantor():
    s = build(CANTOR)
    assert symgaps.cycle_products(s, "u", F(1, 30)) == frozenset(
        {F(1, 3), F(1, 9), F(1, 27)}
    )


def test_gap_enumeration_serialization():
    s = build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 10))
    assert enum.to_json() == {"cutoff": "1/10", "values": ["1/3", "1/9"]}
    assert enum.csv_lines() == ["1/3", "1/9"]


def test_enumerate_invalid_cutoff():
    s = build(CANTOR)
    with pytest.raises(ValueError):
        symgaps.enumerate_gaps(s, F(0))
