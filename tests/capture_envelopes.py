"""Golden CLI envelopes: the cases, one runner, and a script to recapture them.

Every case runs ``cli.main`` in process on a bundled fixture and records its
exit code and stdout.  The fixture directory in the output is replaced by
``<fixtures>`` so the goldens do not depend on where the package lives.
``tests/test_golden_envelopes.py`` compares each case byte for byte.

Recapture from a checkout (writes ``tests/goldens/envelopes.json``):

    PYTHONPATH=src python tests/capture_envelopes.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Optional

import dustgaps
from dustgaps import cli

BUDGET_ENV = "DUSTGAPS_BUDGET"
GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "envelopes.json"
FIXTURE_DIR = str(dustgaps.fixture_path("cantor").parent)

FIXTURES = ("cantor", "mixed", "iterate2-cantor", "overlap3", "gd2")
# a gap below each fixture's residual threshold, where one exists
THETA = {
    "cantor": "1/9",
    "mixed": "1/12",
    "iterate2-cantor": "1/27",
    "overlap3": "1/9",
    "gd2": "1/8",
}


def _fixture(name: str) -> str:
    return f"{FIXTURE_DIR}/{name}.json"


def cases() -> dict[str, tuple[list[str], Optional[str]]]:
    """Case id -> (argv, DUSTGAPS_BUDGET value or None for unset)."""
    out: dict[str, tuple[list[str], Optional[str]]] = {}
    for name in FIXTURES:
        f = _fixture(name)
        theta = THETA[name]
        per_fixture = {
            "validate": ["validate", f],
            "hull": ["hull", f],
            "gaps-exact": ["gaps", f, "--exact", "--cutoff", "1/100"],
            "gaps-exact-csv": ["gaps", f, "--exact", "--cutoff", "1/100", "--format", "csv"],
            "gaps-exact-nocutoff": ["gaps", f, "--exact"],
            "gaps-metric": ["gaps", f, "--metric", "--noise-floor", "1/100", "--depth", "5"],
            "kappa-deltas": ["kappa", f, "--depth", "5", "--delta", "1/10", "--delta", "1/30"],
            "kappa-profile": ["kappa", f, "--depth", "4", "--format", "csv"],
            "ratios": ["ratios", f, "--theta", theta],
            "algdep-ifs": ["algdep", f, "--from-ifs"],
            "algdep-gaps": ["algdep", f, "--from-gaps"],
            "algdep-gaps-theta": ["algdep", f, "--from-gaps", "--theta", theta, "--cutoff", "1/500"],
            "algdep-gaps-high-cutoff": ["algdep", f, "--from-gaps", "--cutoff", "1/2"],
            "verify-commensurability": ["verify", f, "--commensurability", _fixture("cantor")],
            "verify-yzx": ["verify", f, "--yzx"],
            "verify-yzx-high-floor": ["verify", f, "--yzx", "--floor", "1/2"],
            "verify-sandwich": ["verify", f, "--sandwich", "--theta", theta],
            "verify-sandwich-notheta": ["verify", f, "--sandwich"],
            "bound": ["bound", f],
            "bound-ifs": ["bound", f, "--from-ifs"],
            "prune": ["prune", f, "--assert-full-measure"],
            "prune-unasserted": ["prune", f],
        }
        for label, argv in per_fixture.items():
            out[f"{name}/{label}"] = (argv, None)
    cantor = _fixture("cantor")
    out["cantor/hull-unknown-root"] = (["hull", cantor, "--root", "w"], None)
    out["cantor/gaps-exact-budget"] = (
        ["gaps", cantor, "--exact", "--cutoff", "1/10000"],
        "2",
    )
    out["cantor/gaps-exact-bad-budget"] = (
        ["gaps", cantor, "--exact", "--cutoff", "1/100"],
        "many",
    )
    out["ratio-lists/commensurability-fail"] = (
        ["verify", "--commensurability", "--ratios-a", "1/2", "--ratios-b", "1/3"],
        None,
    )
    return out


def _set_budget(value: Optional[str]) -> None:
    if value is None:
        os.environ.pop(BUDGET_ENV, None)
    else:
        os.environ[BUDGET_ENV] = value


def run_case(argv: list[str], budget: Optional[str]) -> dict:
    """Exit code and normalised stdout of one in-process CLI run."""
    saved = os.environ.get(BUDGET_ENV)
    _set_budget(budget)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        _set_budget(saved)
    return {"code": code, "stdout": buf.getvalue().replace(FIXTURE_DIR, "<fixtures>")}


def main() -> None:
    goldens = {cid: run_case(*case) for cid, case in cases().items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(goldens)} envelopes to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
