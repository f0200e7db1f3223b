"""Exact arithmetic kernel for multiplicative-structure questions.

Positive rationals are encoded as signed prime-exponent vectors, which turns
multiplicative problems (rank of a ratio set over Q, nonnegative-combination
feasibility) into exact linear algebra over the rationals.  Elimination runs
fraction-free over integer exponents; plain `fractions.Fraction` is the
scalar type of every returned value, and values serialize as exact strings
such as "3/4" or "2".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

DEFAULT_PRIME_BOUND = 10**6
MAX_GENERATORS = 8
MAX_PRIMES = 16


class FactorError(ValueError):
    """A value could not be factored within the configured prime bound."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational string of the form "p/q" or "p".  Text that
    is not a rational, a zero denominator included, is a ValueError."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def format_rational(value: Fraction) -> str:
    """Serialize a rational exactly; inverse of parse_rational."""
    return str(Fraction(value))


@dataclass(frozen=True)
class ExponentVector:
    """Signed prime-exponent vector; encodes prod p**e_p exactly.

    Vector addition corresponds to multiplication of the encoded rationals,
    and the zero vector encodes 1.  Entries are kept sorted by prime with
    zero exponents dropped, so equality and hashing are structural.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((int(p), int(e)) for p, e in self.entries if e != 0))
        for p, _ in cleaned:
            if p < 2:
                raise ValueError(f"prime must be >= 2, got {p}")
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def from_mapping(cls, mapping) -> "ExponentVector":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def exponent(self, prime: int) -> int:
        for p, e in self.entries:
            if p == prime:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        merged = dict(self.entries)
        for p, e in other.entries:
            merged[p] = merged.get(p, 0) + e
        return ExponentVector.from_mapping(merged)

    def __neg__(self) -> "ExponentVector":
        return ExponentVector(tuple((p, -e) for p, e in self.entries))

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        return self + (-other)

    def scaled(self, k: int) -> "ExponentVector":
        return ExponentVector(tuple((p, k * e) for p, e in self.entries))


def factor(value, prime_bound: int = DEFAULT_PRIME_BOUND) -> ExponentVector:
    """Factor a positive rational into its prime-exponent vector.

    Trial division up to `prime_bound`.  A leftover cofactor is accepted only
    when it is provably prime (trial division reached its square root);
    otherwise a FactorError names the offending cofactor.
    """
    x = Fraction(value)
    if x <= 0:
        raise ValueError(f"can only factor positive rationals, got {x}")
    exps: dict[int, int] = {}
    for n, direction in ((x.numerator, 1), (x.denominator, -1)):
        for p, k in _factor_int(n, prime_bound).items():
            exps[p] = exps.get(p, 0) + direction * k
    return ExponentVector.from_mapping(exps)


def _factor_int(n: int, bound: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    factors: dict[int, int] = {}
    d = 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        # n has no divisor <= min(bound, sqrt(n)); it is prime when the scan
        # actually reached sqrt(n), i.e. when n <= bound**2.
        if d * d > n or n <= bound * bound:
            factors[n] = factors.get(n, 0) + 1
        else:
            raise FactorError(
                f"cofactor {n} has no prime factor below {bound} and exceeds "
                f"{bound}**2; raise the prime bound to factor it"
            )
    return factors


def compose(vector: ExponentVector) -> Fraction:
    """Rebuild the positive rational encoded by a vector; inverse of factor."""
    num = den = 1
    for p, e in vector.entries:
        if e > 0:
            num *= p**e
        else:
            den *= p ** (-e)
    return Fraction(num, den)


@dataclass(frozen=True)
class QSpan:
    """Q-linear span of exponent vectors, held as a row-reduced basis.

    Basis rows are rescaled to primitive integer vectors with positive
    leading entry, so equal spans compare equal.
    """

    basis: tuple[ExponentVector, ...] = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)


def qrank(vectors: Iterable[ExponentVector]) -> QSpan:
    """Row-reduce the vectors over Q; the span's dimension is their rank."""
    vecs = list(vectors)
    primes = sorted({p for v in vecs for p in v.primes})
    reduced, _ = _rref([[v.exponent(p) for p in primes] for v in vecs])
    basis = []
    for row in reduced:
        if next(c for c in row if c) < 0:
            row = [-c for c in row]
        basis.append(ExponentVector(tuple((p, c) for p, c in zip(primes, row) if c)))
    return QSpan(tuple(basis))


def nonneg_solve(
    target: ExponentVector, generators: Sequence[ExponentVector]
) -> Optional[list[Fraction]]:
    """Exact nonnegative feasibility: rationals m_i >= 0, not all zero, with
    sum(m_i * gen_i) == target; None when no such combination exists.

    For a nonzero target one elimination of [generators | target] settles
    targets outside the span and independent generators; otherwise it
    searches basic solutions over independent subsets of at most rank
    generators.  For the zero target it searches one-signed extreme rays.
    Both are complete at this scale by conic Caratheodory.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if len(gens) > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators supported, got {len(gens)}")
    primes = sorted({p for v in [target, *gens] for p in v.primes})
    if len(primes) > MAX_PRIMES:
        raise ValueError(f"at most {MAX_PRIMES} distinct primes supported, got {len(primes)}")
    cols = [[g.exponent(p) for p in primes] for g in gens]
    t = [target.exponent(p) for p in primes]
    n = len(gens)
    if any(t):
        reduced, pivots = _rref([[col[j] for col in cols] + [t[j]] for j in range(len(t))])
        if n in pivots:
            return None  # the target lies outside the span
        rank = len(pivots)
        if rank == n:
            sol = [Fraction(row[-1], row[c]) for row, c in zip(reduced, pivots)]
            return sol if all(c >= 0 for c in sol) else None
        for size in range(1, rank + 1):
            for subset in itertools.combinations(range(n), size):
                sol = _solve_independent([cols[i] for i in subset], t)
                if sol is not None and all(c >= 0 for c in sol):
                    out = [Fraction(0)] * n
                    for i, c in zip(subset, sol):
                        out[i] = c
                    return out
        return None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            ray = _one_signed_nullray([cols[i] for i in subset])
            if ray is not None:
                out = [Fraction(0)] * n
                for i, c in zip(subset, ray):
                    out[i] = c
                return out
    return None


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row stays zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over int; returns (nonzero
    rows, pivot cols).

    Each returned row is a primitive integer multiple of the matching row of
    the rational reduced row echelon form, so row[j] / row[pivot] reads its
    entries.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = _primitive(mat[r])
        p = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = _primitive([p * x - f * y for x, y in zip(mat[i], mat[r])])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _solve_independent(
    columns: list[list[int]], t: list[int]
) -> Optional[list[Fraction]]:
    """Solve sum(x_i * col_i) == t when the columns are independent; None if
    they are dependent or the system is inconsistent."""
    k = len(columns)
    rows = [[col[j] for col in columns] + [t[j]] for j in range(len(t))]
    reduced, pivots = _rref(rows)
    if k in pivots:
        return None  # inconsistent: pivot in the augmented column
    if len(pivots) < k:
        return None  # dependent subset; a smaller one covers this case
    sol = [Fraction(0)] * k
    for row, c in zip(reduced, pivots):
        sol[c] = Fraction(row[-1], row[c])
    return sol


def _one_signed_nullray(columns: list[list[int]]) -> Optional[list[Fraction]]:
    """A strictly one-signed null vector of the column system, normalized to
    positive entries with leading coefficient 1; None unless nullity is one."""
    k = len(columns)
    nrows = len(columns[0]) if columns else 0
    rows = [[col[j] for col in columns] for j in range(nrows)]
    reduced, pivots = _rref(rows)
    if k - len(pivots) != 1:
        return None
    free = next(c for c in range(k) if c not in pivots)
    ray = [Fraction(0)] * k
    ray[free] = Fraction(1)
    for row, c in zip(reduced, pivots):
        ray[c] = Fraction(-row[free], row[c])
    if all(x > 0 for x in ray) or all(x < 0 for x in ray):
        lead = ray[0]
        return [x / lead for x in ray]
    return None
