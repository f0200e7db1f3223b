import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dustgaps
from conftest import random_hull_disjoint
from dustgaps import analysis, model, symgaps
from dustgaps.analysis import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    EmpiricalRatio,
    MonomialCone,
    PruneError,
    RatioReport,
    algdep_from_gaps,
    algdep_of_ifs,
    cone_contains_q,
    lower_bound,
    prune_to_ssc,
    ratios_of,
    verify_commensurability,
    verify_intrinsic_dependence,
    verify_sandwich,
)
from dustgaps.exactnum import factor
from dustgaps.model import Similarity1D

F = Fraction


def ifs(*maps):
    return model.GDInstance.ifs([Similarity1D(F(r), s, F(o)) for r, s, o in maps])


CANTOR = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"))
MIXED = ifs(("1/2", 1, "0"), ("1/3", 1, "2/3"))


def test_cone_normalizes_generators():
    cone = MonomialCone((F(1, 2), F(1, 3), F(1, 2)))
    assert cone.generators == (F(1, 3), F(1, 2))
    assert cone.vectors == (factor(F(1, 3)), factor(F(1, 2)))
    assert cone == MonomialCone([F(1, 3), F(1, 2)])
    with pytest.raises(ValueError):
        MonomialCone((F(-1, 2),))
    with pytest.raises(ValueError):
        MonomialCone((F(1, 2), F(0)))
    with pytest.raises(ValueError):
        MonomialCone(())


def test_cone_contains_q_examples():
    d = cone_contains_q(MonomialCone((F(1, 9),)), F(1, 3))
    assert d.status == "yes" and d.coefficients == (F(1, 2),)
    d = cone_contains_q(MonomialCone((F(1, 3),)), F(1, 9))
    assert d.status == "yes" and d.coefficients == (F(2),)
    assert cone_contains_q(MonomialCone((F(1, 2),)), F(1, 3)).status == "no"
    d = cone_contains_q(MonomialCone((F(1, 2), F(1, 3))), F(1))
    assert d.status == "yes" and d.coefficients == (F(0), F(0))


def test_cone_decision_json():
    doc = cone_contains_q(MonomialCone((F(1, 9),)), F(1, 3)).to_json()
    assert doc == {"status": "yes", "coefficients": ["1/2"]}


def test_ratios_of_cantor_symbolic():
    s = symgaps.build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 1000))
    rep = ratios_of(enum, F(1, 9), symbolic=s)
    assert rep.symbolic_used
    assert rep.certified == tuple(F(1, 3**k) for k in range(1, 7))
    assert rep.verified_ratios() == rep.certified
    # the only ladder long enough for the empirical tier is ratio 1/3
    assert [e.ratio for e in rep.empirical] == [F(1, 3)]
    e = rep.empirical[0]
    assert e.theta_prime == F(1, 3)
    assert e.witnesses == 6
    assert e.verified and e.verified_depth == rep.verify_depth


def test_ratios_of_certified_tier_ignores_witness_count():
    # 1/9 tops out at three ladder members above the floor, below the
    # empirical minimum, yet the closed-path certificate still admits it
    s = symgaps.build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 1000))
    rep = ratios_of(enum, F(1, 9), symbolic=s)
    assert F(1, 9) in rep.certified
    assert F(1, 9) not in {e.ratio for e in rep.empirical}


def test_ratios_of_plain_iterable():
    values = [F(1, 3**k) for k in range(1, 7)]
    rep = ratios_of(values, F(1, 9))
    assert not rep.symbolic_used
    assert rep.certified == ()
    assert [e.ratio for e in rep.empirical] == [F(1, 3)]
    assert not rep.empirical[0].verified
    assert rep.verified_ratios() == ()
    assert rep.all_ratios() == (F(1, 3),)


def test_ratios_of_drops_spurious_chain():
    # a planted geometric ladder that the symbolic set cannot extend below
    # the floor is rejected by the verification sweep
    s = symgaps.build(CANTOR)
    planted = [F(1, 5), F(1, 25), F(1, 125), F(1, 625)]
    rep = ratios_of(planted, F(1, 5), symbolic=s)
    assert rep.certified == ()
    assert rep.empirical == ()


def test_ratios_of_guards():
    values = [F(1, 2), F(1, 4), F(1, 8)]
    with pytest.raises(ValueError):
        ratios_of(values, F(1, 3))
    with pytest.raises(ValueError):
        ratios_of(values, F(1, 2), min_witnesses=2)
    with pytest.raises(ValueError):
        ratios_of(values, F(1, 2), verify_depth=-1)
    with pytest.raises(ValueError):
        ratios_of([], F(1, 2))
    with pytest.raises(ValueError, match="gap lengths are positive"):
        ratios_of([F(0), F(1, 2), F(1, 4)], F(1, 2))
    with pytest.raises(ValueError, match="gap lengths are positive"):
        ratios_of([F(-1, 8), F(1, 2), F(1, 4), F(1, 8)], F(1, 2))


def reference_mine_ratios(theta_set, theta, min_witnesses=4, verify_depth=12, symbolic=None):
    """The Fraction ladder miner that the integer one replaced, kept as its
    oracle: every candidate sorted, every ladder step a Fraction."""
    theta = Fraction(theta)
    if isinstance(theta_set, symgaps.GapEnumeration):
        values = set(theta_set.values)
        floor = theta_set.cutoff
    else:
        values = {Fraction(v) for v in theta_set}
        floor = min(values)
    assert theta in values
    candidates = set()
    for v in values:
        if v < theta:
            candidates.add(v / theta)
        elif v > theta:
            candidates.add(theta / v)
    certified_set = frozenset()
    if symbolic is not None:
        certified_set = frozenset(
            p
            for v in symgaps.realization_vertices(symbolic, theta)
            for p in symgaps.cycle_products(symbolic, v, floor)
            if p < 1
        )
        candidates.update(certified_set)
    certified = []
    empirical = []
    for r in sorted(candidates, reverse=True):
        is_certified = r in certified_set
        if is_certified:
            certified.append(r)
        top = theta
        while top / r in values:
            top = top / r
        witnesses = 0
        cur = top
        broken = False
        while cur >= floor:
            if cur not in values:
                broken = True
                break
            witnesses += 1
            cur = cur * r
        if broken or witnesses < min_witnesses:
            continue
        verified = False
        depth_checked = 0
        if symbolic is not None:
            if is_certified:
                verified = True
                depth_checked = verify_depth
            else:
                verified = True
                term = cur
                for _ in range(verify_depth):
                    if not symgaps.contains(symbolic, term):
                        verified = False
                        break
                    depth_checked += 1
                    term = term * r
                if not verified:
                    continue
        empirical.append(EmpiricalRatio(r, top, witnesses, verified, depth_checked))
    return RatioReport(
        theta,
        floor,
        min_witnesses,
        verify_depth,
        tuple(certified),
        tuple(empirical),
        symbolic is not None,
    )


def _oracle_systems():
    named = [
        (name, model.load_instance(dustgaps.fixture_path(name)))
        for name in ("cantor", "mixed", "gd2", "iterate2-cantor")
    ]
    rng = random.Random(20260818)
    return named + [(f"random{i:02d}", random_hull_disjoint(rng)) for i in range(20)]


ORACLE_SYSTEMS = _oracle_systems()


def _eligible(s, floor):
    threshold = symgaps.natural_delta(s)
    return [v for v in symgaps.enumerate_gaps(s, floor).values if v < threshold]


@pytest.mark.parametrize("name,g", ORACLE_SYSTEMS, ids=[n for n, _ in ORACLE_SYSTEMS])
def test_ratios_of_matches_fraction_reference(name, g):
    checked = 0
    for floor in (F(1, 1000), F(1, 10**4)):
        s, s_ref = symgaps.build(g), symgaps.build(g)
        enum = symgaps.enumerate_gaps(s, floor)
        enum_ref = symgaps.enumerate_gaps(s_ref, floor)
        for theta in _eligible(s, floor):
            got = ratios_of(enum, theta, symbolic=s).to_json()
            assert got == reference_mine_ratios(enum_ref, theta, symbolic=s_ref).to_json()
            checked += 1
    assert checked > 0 or name.startswith("random")


@pytest.mark.parametrize("name,g", ORACLE_SYSTEMS[:7], ids=[n for n, _ in ORACLE_SYSTEMS[:7]])
def test_ratios_of_reference_arguments(name, g):
    floor = F(1, 1000)
    s, s_ref = symgaps.build(g), symgaps.build(g)
    enum = symgaps.enumerate_gaps(s, floor)
    plain = list(enum.values)
    for theta in _eligible(s, floor):
        for mw in (3, 4, 5):
            for vd in (0, 12):
                got = ratios_of(enum, theta, mw, vd, symbolic=s).to_json()
                assert got == reference_mine_ratios(enum, theta, mw, vd, s_ref).to_json()
            got = ratios_of(plain, theta, mw).to_json()
            assert got == reference_mine_ratios(plain, theta, mw).to_json()
            got = ratios_of(iter(plain), theta, mw, symbolic=s).to_json()
            assert got == reference_mine_ratios(plain, theta, mw, symbolic=s_ref).to_json()


def test_ratio_report_json():
    s = symgaps.build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 100))
    doc = ratios_of(enum, F(1, 9), symbolic=s).to_json()
    assert doc["theta"] == "1/9"
    assert doc["floor"] == "1/100"
    assert "1/3" in doc["certified"]
    assert doc["symbolic_used"] is True
    assert doc["empirical"][0]["ratio"] == "1/3"


def test_ratio_report_orders_exactly_past_float_ties():
    # the first two differ by about 1e-40 and round to the same float
    tied = [F(10**20, 10**20 + 1), F(10**20 + 1, 10**20 + 2), F(1, 3)]
    empirical = tuple(EmpiricalRatio(r, r, 4, True, 12) for r in (tied[1], F(1, 9)))
    rep = RatioReport(F(1, 9), F(1, 1000), 4, 12, tuple(tied), empirical, True)
    expected = tuple(sorted(set(tied) | {F(1, 9)}, reverse=True))
    assert float(tied[0]) == float(tied[1])
    assert rep.verified_ratios() == rep.all_ratios() == expected
    huge = RatioReport(F(1, 9), F(1, 1000), 4, 12, (F(10**400), F(1, 3), F(10**401)), (), True)
    assert huge.verified_ratios() == (F(10**401), F(10**400), F(1, 3))


def test_algdep_of_ifs():
    rep = algdep_of_ifs(CANTOR)
    assert rep.independence_number == 1
    assert rep.dependence_number == 0
    rep2 = algdep_of_ifs(MIXED)
    assert rep2.independence_number == 2
    assert rep2.dependence_number == 1


def test_algdep_from_gaps_cantor():
    s = symgaps.build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 1000))
    rep = algdep_from_gaps(ratios_of(enum, F(1, 9), symbolic=s))
    assert rep.independence_number == 1
    assert rep.dependence_number == 0
    assert rep.certified_dimension == 1
    assert rep.warnings == ()
    assert lower_bound(rep) == 1


def test_algdep_from_gaps_raw_fallback():
    rep = algdep_from_gaps(ratios_of([F(1, 3**k) for k in range(1, 7)], F(1, 9)))
    assert rep.independence_number == 1
    assert rep.certified_dimension is None
    assert any("no symbolic verification" in w for w in rep.warnings)


def test_algdep_from_gaps_tier_mismatch_warns():
    doctored = RatioReport(
        theta=F(1, 9),
        floor=F(1, 1000),
        min_witnesses=4,
        verify_depth=12,
        certified=(F(1, 3),),
        empirical=(EmpiricalRatio(F(1, 2), F(1, 2), 5, True, 12),),
        symbolic_used=True,
    )
    rep = algdep_from_gaps(doctored)
    assert rep.independence_number == 2
    assert rep.certified_dimension == 1
    assert any("tier mismatch" in w for w in rep.warnings)


def test_algdep_from_gaps_empty():
    empty = RatioReport(F(1, 9), F(1, 100), 4, 12, (), (), False)
    rep = algdep_from_gaps(empty)
    assert rep.independence_number == 0
    assert rep.dependence_number == -1
    assert rep.warnings != ()
    assert lower_bound(rep) == 0


def test_commensurability_pass_with_witnesses():
    v = verify_commensurability([F(1, 3)], [F(1, 9)])
    assert v.claim == "commensurability" and v.status == PASS
    (row,) = v.details["x_in_cone_a"]
    assert row == {"ratio": "1/9", "status": "yes", "coefficients": ["2"]}
    (row,) = v.details["a_in_cone_x"]
    assert row == {"ratio": "1/3", "status": "yes", "coefficients": ["1/2"]}


def test_commensurability_counterexample():
    v = verify_commensurability([F(1, 2)], [F(1, 3)])
    assert v.status == FAIL
    assert v.summary.startswith("counterexample:")
    assert "1/3" in v.summary


def test_commensurability_of_iterated_system():
    g2 = model.iterate_ifs(CANTOR, 2)
    v = verify_commensurability(CANTOR.ratio_set(), g2.ratio_set())
    assert v.status == PASS


def test_sandwich_cantor_passes():
    s = symgaps.build(CANTOR)
    v = verify_sandwich(CANTOR, s, F(1, 9), F(1, 1000))
    assert v.claim == "ratio-sandwich" and v.status == PASS
    assert len(v.details["lower_pool"]) == 6
    assert all(c["status"] == "yes" for c in v.details["upper_checks"])


def test_sandwich_mixed_passes():
    s = symgaps.build(MIXED)
    v = verify_sandwich(MIXED, s, F(1, 12), F(1, 200))
    assert v.status == PASS


def test_sandwich_gate_theta_above_threshold():
    s = symgaps.build(CANTOR)
    v = verify_sandwich(CANTOR, s, F(1, 3), F(1, 100))
    assert v.status == INCONCLUSIVE
    assert "threshold" in v.summary


def test_sandwich_gate_theta_not_enumerated():
    s = symgaps.build(CANTOR)
    v = verify_sandwich(CANTOR, s, F(1, 5), F(1, 100))
    assert v.status == INCONCLUSIVE


def test_sandwich_fails_on_uncertified_products():
    s = symgaps.build(CANTOR)
    hollow = RatioReport(F(1, 9), F(1, 1000), 4, 12, (), (), True)
    v = verify_sandwich(CANTOR, s, F(1, 9), F(1, 1000), report=hollow)
    assert v.status == FAIL
    assert "uncertified ladder products" in v.summary


def test_sandwich_rejects_report_at_another_theta():
    s = symgaps.build(CANTOR)
    enum = symgaps.enumerate_gaps(s, F(1, 1000))
    other = ratios_of(enum, F(1, 27), symbolic=s)
    with pytest.raises(ValueError, match="theta 1/27"):
        verify_sandwich(CANTOR, s, F(1, 9), F(1, 1000), report=other)


def test_sandwich_rejects_report_at_another_floor():
    s = symgaps.build(CANTOR)
    shallow = ratios_of(symgaps.enumerate_gaps(s, F(1, 100)), F(1, 9), symbolic=s)
    with pytest.raises(ValueError, match="floor 1/100"):
        verify_sandwich(CANTOR, s, F(1, 9), F(1, 1000), report=shallow)


def test_sandwich_fails_on_cone_escape():
    s = symgaps.build(CANTOR)
    pool = tuple(F(1, 3**k) for k in range(1, 7))
    doctored = RatioReport(
        F(1, 9), F(1, 1000), 4, 12, pool + (F(1, 2),), (), True
    )
    v = verify_sandwich(CANTOR, s, F(1, 9), F(1, 1000), report=doctored)
    assert v.status == FAIL
    assert "escaping the rational cone" in v.summary
    assert "1/2" in v.summary


@pytest.mark.parametrize("name,g", ORACLE_SYSTEMS[:8], ids=[n for n, _ in ORACLE_SYSTEMS[:8]])
def test_sandwich_sweep_on_one_gap_set_matches_fresh_sets(name, g):
    floor = F(1, 1000)
    s = symgaps.build(g)
    for theta in _eligible(s, floor):
        swept = verify_sandwich(g, s, theta, floor).to_json()
        assert swept == verify_sandwich(g, symgaps.build(g), theta, floor).to_json()


def test_sandwich_sweep_decides_each_ratio_once(monkeypatch):
    asked = []
    decide = analysis.cone_contains_q

    def counted(cone, x):
        asked.append((cone.generators, x))
        return decide(cone, x)

    monkeypatch.setattr(analysis, "cone_contains_q", counted)
    floor = F(1, 1000)
    s = symgaps.build(MIXED)
    thetas = _eligible(s, floor)
    for theta in thetas:
        assert verify_sandwich(MIXED, s, theta, floor).status == PASS
    assert len(thetas) > 1
    assert len(asked) == len(set(asked))


def test_sandwich_verdicts_share_no_mutable_details():
    floor = F(1, 1000)
    s = symgaps.build(CANTOR)
    first = verify_sandwich(CANTOR, s, F(1, 9), floor)
    expected = verify_sandwich(CANTOR, symgaps.build(CANTOR), F(1, 9), floor).to_json()
    first.details["lower_pool"].append("1/2")
    first.details["certified"].clear()
    first.details["upper_checks"][0]["status"] = "no"
    first.details["upper_checks"][0]["coefficients"].append("7")
    first.details["upper_checks"].pop()
    assert verify_sandwich(CANTOR, s, F(1, 9), floor).to_json() == expected


def test_sandwich_second_cone_on_one_gap_set():
    floor = F(1, 1000)
    s = symgaps.build(CANTOR)
    assert verify_sandwich(CANTOR, s, F(1, 9), floor).status == PASS
    # the same gap set against other contraction ratios: cone (1/9) holds 1/3
    # at exponent 1/2, and cone (1/2) holds none of the mined ratios
    ninths = ifs(("1/9", 1, "0"), ("1/9", 1, "8/9"))
    v = verify_sandwich(ninths, s, F(1, 9), floor)
    assert v.status == PASS
    first = v.details["upper_checks"][0]
    assert first == {"ratio": "1/3", "status": "yes", "coefficients": ["1/2"]}
    halves = ifs(("1/2", 1, "0"), ("1/4", 1, "3/4"))
    v = verify_sandwich(halves, s, F(1, 9), floor)
    assert v.status == FAIL and "escaping the rational cone" in v.summary
    assert all(c["status"] == "no" for c in v.details["upper_checks"])
    for g in (ninths, halves, CANTOR):
        fresh = verify_sandwich(g, symgaps.build(CANTOR), F(1, 9), floor).to_json()
        assert verify_sandwich(g, s, F(1, 9), floor).to_json() == fresh


def test_intrinsic_dependence_cantor():
    v = verify_intrinsic_dependence(CANTOR)
    assert v.status == PASS
    assert v.summary == "dependence 0 = 0"


def test_intrinsic_dependence_mixed():
    v = verify_intrinsic_dependence(MIXED)
    assert v.status == PASS
    assert v.summary == "dependence 1 = 1"
    assert v.details["from_gaps"]["independence_number"] == 2


def test_intrinsic_dependence_graph_instance():
    g = model.load_instance(dustgaps.fixture_path("gd2"))
    v = verify_intrinsic_dependence(g, root="u")
    assert v.status == PASS
    assert "<=" in v.summary


def test_intrinsic_dependence_requires_hull_disjoint():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    v = verify_intrinsic_dependence(g)
    assert v.status == INCONCLUSIVE
    assert "hull-disjoint" in v.summary


def test_intrinsic_dependence_computes_the_hulls_once(monkeypatch):
    # the separation check and the gap set share one HullList
    calls = []
    real = model.hulls

    def counted(g):
        calls.append(g)
        return real(g)

    for module in (model, symgaps, analysis):
        monkeypatch.setattr(module, "hulls", counted)
    overlap3 = model.load_instance(dustgaps.fixture_path("overlap3"))
    for g, status in ((MIXED, PASS), (overlap3, INCONCLUSIVE)):
        calls.clear()
        assert verify_intrinsic_dependence(g).status == status
        assert calls == [g]


def test_prune_overlap3():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    res = prune_to_ssc(g, full_measure_asserted=True)
    assert sorted(e.eid for e in res.pruned.edges) == ["S1", "S2"]
    (r,) = res.removals
    assert (r.removed, r.kept, r.word) == ("S3", "S1", ("S1",))
    assert res.separation == model.HULL_DISJOINT
    assert res.hausdorff_distance == 0
    assert res.hausdorff_bound == 2 * F(1, 3) ** 10
    assert res.check_depth == 10


def test_prune_deeper_word():
    g = ifs(("1/3", 1, "0"), ("1/3", 1, "2/3"), ("1/27", 1, "8/27"))
    res = prune_to_ssc(g, full_measure_asserted=True)
    (r,) = res.removals
    assert r.removed == "S3" and r.kept == "S1"
    assert r.word == ("S2", "S2")
    assert res.hausdorff_distance == 0


def test_prune_refusals():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    with pytest.raises(ValueError):
        prune_to_ssc(g, full_measure_asserted=False)
    gd = model.load_instance(dustgaps.fixture_path("gd2"))
    with pytest.raises(ValueError):
        prune_to_ssc(gd, full_measure_asserted=True)


def test_prune_rejects_unnested_overlap():
    g = ifs(("2/3", 1, "0"), ("2/3", 1, "1/3"))
    with pytest.raises(PruneError):
        prune_to_ssc(g, full_measure_asserted=True)


def test_prune_noop_on_separated_instance():
    res = prune_to_ssc(CANTOR, full_measure_asserted=True)
    assert res.removals == ()
    assert res.pruned is CANTOR
    assert res.hausdorff_distance == 0


def test_removal_json():
    g = model.load_instance(dustgaps.fixture_path("overlap3"))
    res = prune_to_ssc(g, full_measure_asserted=True)
    assert res.removals[0].to_json() == {
        "removed": "S3",
        "kept": "S1",
        "word": ["S1"],
    }


def _nested_system(rng):
    """A hull-disjoint system plus one or two maps S_outer . S_w, with outer
    and the one to three letters of w drawn from its maps."""
    base = random_hull_disjoint(rng)
    added = []
    for i in range(rng.randint(1, 2)):
        m = rng.choice(base.edges).sim.affine()
        for _ in range(rng.randint(1, 3)):
            m = m.compose(rng.choice(base.edges).sim.affine())
        sim = Similarity1D(abs(m.slope), 1 if m.slope > 0 else -1, m.intercept)
        added.append(model.Edge(f"N{i + 1}", "u", "u", sim))
    return base, model.GDInstance(base.vertices, base.edges + tuple(added))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_prune_covers_equal_on_random_nested_systems(seed):
    # prune_to_ssc reports distance 0 from the composition certificates; the
    # covers it no longer builds must agree at every depth
    base, g = _nested_system(random.Random(seed))
    assume(not model.validate(g))  # two added maps may coincide
    res = prune_to_ssc(g, full_measure_asserted=True)
    assert {r.removed for r in res.removals} == {e.eid for e in g.edges} - {
        e.eid for e in base.edges
    }
    assert res.pruned.edges == base.edges
    assert res.hausdorff_distance == 0
    for d in range(6):
        assert model.cover_intervals(g, "u", d) == model.cover_intervals(res.pruned, "u", d)
