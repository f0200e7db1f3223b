"""CLI envelopes on the bundled fixtures stay byte-identical to the goldens.

The cases and the runner live in ``capture_envelopes.py``; rerun it as a
script only when an output change is intended.
"""

import json

import pytest

from capture_envelopes import GOLDEN_PATH, cases, run_case

GOLDENS = json.loads(GOLDEN_PATH.read_text())
CASES = cases()


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_envelope_matches_golden(case_id):
    argv, budget = CASES[case_id]
    assert run_case(argv, budget) == GOLDENS[case_id]
