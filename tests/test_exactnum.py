import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dustgaps import exactnum
from dustgaps.exactnum import (
    ExponentVector,
    FactorError,
    QSpan,
    compose,
    factor,
    format_rational,
    nonneg_solve,
    parse_rational,
    qrank,
)


def naive_factor(value: Fraction) -> dict:
    """Oracle: ascending trial division, numerator and denominator separately."""
    out: dict[int, int] = {}
    for n, s in ((value.numerator, 1), (value.denominator, -1)):
        n = abs(n)
        d = 2
        while n > 1:
            while n % d == 0:
                out[d] = out.get(d, 0) + s
                n //= d
            d += 1
    return {p: e for p, e in out.items() if e != 0}


def test_parse_format_roundtrip_examples():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 2/4 ") == Fraction(1, 2)
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(4)) == "4"


def test_format_rational_pinned_outputs():
    # a plain Fraction prints as itself; anything else goes through Fraction,
    # so a subclass's own __str__ is not used
    class Odd(Fraction):
        def __str__(self):
            return "odd"

    cases = [
        (Fraction(6, 8), "3/4"),
        (Odd(3, 4), "3/4"),
        (5, "5"),
        (True, "1"),
        (Fraction(-3, 4), "-3/4"),
        (-2, "-2"),
        (" 2/4 ", "1/2"),
        (0.5, "1/2"),
    ]
    for value, text in cases:
        assert format_rational(value) == text


def test_parse_rejects_garbage():
    for bad in ("", "one third", "1/3/5", "3//4", "1/0", "0/0", "-5/0"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_roundtrip_many_random_rationals():
    rng = random.Random(7)
    for _ in range(1000):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_factor_frozen_example():
    # 36/25 = 2^2 3^2 5^-2, checked against the naive oracle once and frozen
    v = factor(Fraction(36, 25))
    assert v.as_dict() == {2: 2, 3: 2, 5: -2}
    assert v.as_dict() == naive_factor(Fraction(36, 25))


def test_factor_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(300):
        q = Fraction(rng.randint(1, 5000), rng.randint(1, 5000))
        assert factor(q).as_dict() == naive_factor(q)


def test_factor_identity_and_compose():
    assert factor(Fraction(1)).is_zero()
    rng = random.Random(13)
    for _ in range(200):
        q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert compose(factor(q)) == q


def test_factor_rejects_out_of_range():
    with pytest.raises(ValueError):
        factor(Fraction(0))
    with pytest.raises(ValueError):
        factor(Fraction(-3, 7))


def test_factor_error_names_cofactor():
    # 101 * 103 exceeds bound^2 = 100 under a tiny bound
    with pytest.raises(FactorError) as exc:
        factor(Fraction(101 * 103), prime_bound=10)
    assert "10403" in str(exc.value)


def test_factor_accepts_prime_just_past_bound():
    # trial division up to b proves primality up to b^2
    v = factor(Fraction(1000003), prime_bound=10**6)
    assert v.as_dict() == {1000003: 1}


def test_exponent_vector_sorts_entries_and_drops_zero_exponents():
    v = ExponentVector(((5, 2), (2, 0), (3, -1)))
    assert v.entries == ((3, -1), (5, 2))
    assert v == ExponentVector.from_mapping({5: 2, 3: -1, 7: 0})
    assert ExponentVector(((2, 0),)) == ExponentVector()
    for prime in (1, 0, -3):
        with pytest.raises(ValueError, match="prime must be >= 2"):
            ExponentVector(((prime, 1),))


def test_exponent_vector_algebra():
    a = factor(Fraction(12))
    b = factor(Fraction(2, 9))
    assert compose(a + b) == Fraction(12) * Fraction(2, 9)
    assert compose(-a) == Fraction(1, 12)
    assert compose(a - b) == Fraction(12) / Fraction(2, 9)
    assert compose(a.scaled(3)) == Fraction(12) ** 3


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
    st.integers(min_value=1, max_value=10**5),
)
def test_factor_is_multiplicative(an, ad, bn, bd):
    # numerators and denominators of the product stay below bound**2,
    # so factoring never needs to give up
    a, b = Fraction(an, ad), Fraction(bn, bd)
    assert factor(a) + factor(b) == factor(a * b)
    assert compose(factor(a)) == a


def det_rank(rows: list[list[Fraction]]) -> int:
    """Oracle: largest k with a k x k submatrix of nonzero determinant."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [r[:j] + r[j + 1 :] for r in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    if not rows:
        return 0
    best = 0
    nr, nc = len(rows), len(rows[0])
    for k in range(1, min(nr, nc) + 1):
        found = False
        for ris in itertools.combinations(range(nr), k):
            for cis in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def test_qrank_examples():
    assert qrank([factor(Fraction(1, 2))]).dimension == 1
    assert qrank([factor(Fraction(1, 2)), factor(Fraction(1, 4))]).dimension == 1
    assert qrank([factor(Fraction(1, 2)), factor(Fraction(1, 3))]).dimension == 2
    ratios = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    assert qrank([factor(r) for r in ratios]).dimension == 2
    assert qrank([factor(Fraction(n)) for n in (6, 10, 15)]).dimension == 3
    assert qrank([]).dimension == 0


def test_qrank_equal_spans_compare_equal():
    s1 = qrank([factor(Fraction(1, 2)), factor(Fraction(1, 3))])
    s2 = qrank([factor(Fraction(1, 6)), factor(Fraction(2, 3))])
    assert s1 == s2


def test_qrank_matches_determinant_oracle():
    rng = random.Random(17)
    primes = [2, 3, 5, 7]
    for _ in range(60):
        nvec = rng.randint(1, 4)
        vecs = [
            ExponentVector(
                tuple((p, rng.randint(-2, 2)) for p in primes)
            )
            for _ in range(nvec)
        ]
        rows = [[Fraction(v.exponent(p)) for p in primes] for v in vecs]
        assert qrank(vecs).dimension == det_rank(rows)


def test_nonneg_solve_examples():
    half = factor(Fraction(1, 2))
    third = factor(Fraction(1, 3))
    # 1/4 = (1/2)^2
    sol = nonneg_solve(factor(Fraction(1, 4)), [half])
    assert sol == [Fraction(2)]
    # 1/2 = (1/4)^(1/2)
    sol = nonneg_solve(factor(Fraction(1, 2)), [factor(Fraction(1, 4))])
    assert sol == [Fraction(1, 2)]
    # 1/6 = (1/2)^1 (1/3)^1
    sol = nonneg_solve(factor(Fraction(1, 6)), [half, third])
    assert sol == [Fraction(1), Fraction(1)]
    # 3/2 = 2^-1 3^1 needs a negative exponent on 1/3
    assert nonneg_solve(factor(Fraction(3, 2)), [half, third]) is None
    # 1/5 is independent of both
    assert nonneg_solve(factor(Fraction(1, 5)), [half, third]) is None


def test_nonneg_solve_zero_target():
    # 1 = (1/2)^1 * 2^1: a one-signed null ray exists
    sol = nonneg_solve(ExponentVector(), [factor(Fraction(1, 2)), factor(Fraction(2))])
    assert sol is not None
    assert all(c >= 0 for c in sol) and any(c > 0 for c in sol)
    # multiplicatively independent: no nontrivial relation
    assert nonneg_solve(ExponentVector(), [factor(Fraction(1, 2)), factor(Fraction(1, 3))]) is None


def test_nonneg_solve_verifies_as_rational_power_product():
    rng = random.Random(23)
    pool = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    for _ in range(40):
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        exps = [rng.randint(0, 3) for _ in gens]
        if not any(exps):
            exps[0] = 1
        target = Fraction(1)
        for g, e in zip(gens, exps):
            target *= g**e
        sol = nonneg_solve(factor(target), [factor(g) for g in gens])
        assert sol is not None
        assert all(c >= 0 for c in sol) and any(c > 0 for c in sol)
        # verify sum of scaled exponent vectors reproduces the target exactly
        primes = sorted({p for g in gens for p in factor(g).primes})
        for p in primes + list(factor(target).primes):
            lhs = sum(Fraction(factor(g).exponent(p)) * c for g, c in zip(gens, sol))
            assert lhs == factor(target).exponent(p)


def test_nonneg_solve_single_generator_complete():
    # with one generator the answer is yes iff target is a rational power
    # with nonnegative exponent; scan a grid and cross-check
    g = Fraction(4, 9)
    gv = factor(g)
    for num in range(1, 30):
        for den in range(1, 30):
            t = Fraction(num, den)
            sol = nonneg_solve(factor(t), [gv])
            expected = None
            # t = g^(a/b) iff t^b == g^a for some small a, b >= 0
            for b in range(1, 9):
                for a in range(0, 17):
                    if t**b == g**a:
                        expected = Fraction(a, b)
                        break
                if expected is not None:
                    break
            if expected is not None and expected > 0:
                assert sol == [expected]
            elif t == 1:
                assert sol is None  # no nontrivial ray from one generator != 1
            else:
                assert sol is None or sol == [expected]


def test_nonneg_solve_guards():
    with pytest.raises(ValueError):
        nonneg_solve(factor(Fraction(1, 2)), [])
    many = [factor(Fraction(1, p)) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]
    with pytest.raises(ValueError):
        nonneg_solve(factor(Fraction(1, 2)), many)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_factor_positive_integers(n):
    v = factor(Fraction(n))
    assert compose(v) == n
    assert all(e > 0 for _, e in v.entries)


# ---------------------------------------------------------------------------
# Reference kernel: the plain-Fraction elimination and the subset-enumerating
# nonneg_solve that the integer kernel replaced, kept here as an independent
# oracle.  Return values must agree exactly, coefficients and bases included.


def ref_rref(rows):
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def ref_qrank(vectors):
    vecs = list(vectors)
    primes = sorted({p for v in vecs for p in v.primes})
    rows = [[Fraction(v.exponent(p)) for p in primes] for v in vecs]
    reduced, _ = ref_rref(rows)
    basis = []
    for row in reduced:
        scale = math.lcm(*(c.denominator for c in row))
        ints = [int(c * scale) for c in row]
        g = math.gcd(*ints)
        ints = [c // g for c in ints]
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        basis.append(ExponentVector(tuple((p, c) for p, c in zip(primes, ints) if c)))
    return QSpan(tuple(basis))


def ref_solve_independent(columns, t):
    k = len(columns)
    rows = [[col[j] for col in columns] + [t[j]] for j in range(len(t))]
    reduced, pivots = ref_rref(rows)
    if k in pivots or len(pivots) < k:
        return None
    sol = [Fraction(0)] * k
    for row, c in zip(reduced, pivots):
        sol[c] = row[-1]
    return sol


def ref_nullray(columns):
    k = len(columns)
    rows = [[col[j] for col in columns] for j in range(len(columns[0]))]
    reduced, pivots = ref_rref(rows)
    if k - len(pivots) != 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    ray = [Fraction(0)] * k
    ray[free] = Fraction(1)
    for row, c in zip(reduced, pivots):
        ray[c] = -row[free]
    if all(x > 0 for x in ray) or all(x < 0 for x in ray):
        return [x / ray[0] for x in ray]
    return None


def ref_nonneg_solve(target, gens):
    primes = sorted({p for v in [target, *gens] for p in v.primes})
    cols = [[Fraction(g.exponent(p)) for p in primes] for g in gens]
    t = [Fraction(target.exponent(p)) for p in primes]
    n = len(gens)
    solve = ref_solve_independent if any(t) else (lambda cs, _t: ref_nullray(cs))
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sol = solve([cols[i] for i in subset], t)
            if sol is not None and all(c >= 0 for c in sol):
                out = [Fraction(0)] * n
                for i, c in zip(subset, sol):
                    out[i] = c
                return out
    return None


# 1 factors to the zero vector; the rest share primes, so random picks give
# dependent sets, duplicates and independent ones
_KERNEL_POOL = tuple(
    Fraction(t)
    for t in "1 1/2 1/3 2/3 1/4 4/9 1/6 3/8 5/12 14 1/9 91/10 7/5 1/7 25/27".split()
)


def _kernel_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        gens = [rng.choice(_KERNEL_POOL) for _ in range(rng.randint(1, exactnum.MAX_GENERATORS))]
        kind = rng.randrange(4)
        if kind == 0:
            target = Fraction(1)  # the zero target
        elif kind == 3:
            target = rng.choice((Fraction(1, 11), Fraction(13, 2), Fraction(22, 3)))
        else:
            # inside the span; negative exponents (kind 2) often leave the cone
            low = 0 if kind == 1 else -2
            target = Fraction(1)
            for g in gens:
                target *= g ** rng.randint(low, 3)
        yield gens, target


def test_kernel_matches_fraction_reference():
    for gens, target in _kernel_cases(20260818, 500):
        vecs = [factor(g) for g in gens]
        tv = factor(target)
        assert nonneg_solve(tv, vecs) == ref_nonneg_solve(tv, vecs), (gens, target)
        assert qrank(vecs) == ref_qrank(vecs), gens
        assert qrank([*vecs, tv]) == ref_qrank([*vecs, tv]), (gens, target)


def test_kernel_rational_exponents_match_reference():
    # square-root-style targets need non-integer coefficients
    for gens, target in [
        ([Fraction(1, 4)], Fraction(1, 2)),
        ([Fraction(4, 9), Fraction(1, 8)], Fraction(1, 3)),
        ([Fraction(1, 4), Fraction(1, 9), Fraction(1, 6)], Fraction(1, 6)),
        ([Fraction(1, 27), Fraction(8)], Fraction(2, 3)),
        ([Fraction(1, 4), Fraction(1), Fraction(1, 4)], Fraction(1, 8)),
    ]:
        vecs = [factor(g) for g in gens]
        tv = factor(target)
        assert nonneg_solve(tv, vecs) == ref_nonneg_solve(tv, vecs)
        assert nonneg_solve(tv, vecs) is not None


def test_qrank_basis_rows_are_primitive():
    # 14 = 2*7 and 91/10 = 7*13/(2*5) eliminate to a pivot on 3 alone
    span = qrank([factor(Fraction(r)) for r in ("1", "14", "1/9", "91/10")])
    assert span == ref_qrank([factor(Fraction(r)) for r in ("1", "14", "1/9", "91/10")])
    assert ExponentVector(((3, 1),)) in span.basis


def test_nonneg_solve_tries_no_subset_above_rank(monkeypatch):
    # subsets larger than the rank are dependent, so the search stops there
    sizes = []
    original = exactnum._solve_independent

    def spy(columns, t):
        sizes.append(len(columns))
        return original(columns, t)

    monkeypatch.setattr(exactnum, "_solve_independent", spy)
    for gens, target in _kernel_cases(7, 200):
        vecs = [factor(g) for g in gens]
        rank = qrank(vecs).dimension
        sizes.clear()
        nonneg_solve(factor(target), vecs)
        assert all(k <= rank for k in sizes), (gens, target)
    # rank 2 of four generators, target in the span but not the cone: the
    # search runs every subset of size 1 and 2 and nothing larger
    vecs = [factor(Fraction(r)) for r in ("1/2", "1/4", "1/3", "1/9")]
    sizes.clear()
    assert nonneg_solve(factor(Fraction(3, 2)), vecs) is None
    assert sorted(sizes) == [1] * 4 + [2] * 6
