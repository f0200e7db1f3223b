"""Exact gap geometry for dust-like self-similar sets on the line.

The package computes the set of gap lengths (bounded complementary
intervals) of attractors of affine contraction systems with rational data,
entirely in exact arithmetic, and mines that set for the geometric ladder
structure that pins down the system's contraction ratios.  A floating-point
pipeline over finite point clouds provides the independent metric
cross-check: component counts kappa(delta) and minimum-spanning-tree merge
heights.

Modules:
    exactnum   rational parsing, prime-exponent vectors, Q-rank, cone solve
    model      instances, exact hulls, separation certificates, covers
    symgaps    symbolic gap sets, enumeration, membership, cycle products
    metgaps    point clouds, kappa profiles, merge heights, metric gaps
    analysis   ratio mining, dependence numbers, verification verdicts
    cli        command-line front end
"""

from pathlib import Path

__version__ = "0.1.0"

_FIXTURES = ("cantor", "mixed", "iterate2-cantor", "overlap3", "gd2")


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example instance (no .json suffix)."""
    from importlib import resources

    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; have {', '.join(_FIXTURES)}")
    with resources.as_file(
        resources.files("dustgaps") / "fixtures" / f"{name}.json"
    ) as p:
        return Path(p)
