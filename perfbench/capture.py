"""Capture golden outputs from the current sources.

    python3 perfbench/capture.py [exact covers cli]

Run from the repository root, only when outputs are meant to change: the
goldens pin the outputs of the code they were captured from.  Seed 0 is
used; the seed only mirrors instances and reorders tasks, which changes no
output.  ``clouds`` has no goldens; its tasks are checked against an oracle
built in set-up.
"""

from __future__ import annotations

import json
import os
import sys

from common import GOLDEN_DIR, ensure_src_on_path, fingerprint
from run import _workload_module

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _record(tasks, goldens: dict) -> None:
    for task in tasks:
        out = task.call()
        if task.check is None:
            goldens[task.key] = fingerprint(task.fp(out))
        else:
            task.check(out)


def capture(name: str) -> dict:
    mod = _workload_module(name)
    goldens: dict = {}
    _record(mod.Workload(0, {}).make_pass(), goldens)
    return goldens


def main(argv: list[str]) -> int:
    ensure_src_on_path()
    for name in argv or ["exact", "covers", "cli"]:
        goldens = capture(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(goldens)} goldens -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
