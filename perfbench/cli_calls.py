"""Workload ``cli``: one ``python -m dustgaps.cli`` process per task.

The thirteen calls below run on the bundled fixtures and on a 2-D CSV cloud
written in set-up; the list repeats until a pass holds at least
MIN_CALLS calls, each repetition in a seeded order.  Every call's stdout
bytes and exit code must equal the golden.  Start-up (interpreter, imports,
argument parsing) and the JSON envelope dominate here.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from common import BENCH_DIR, REPO_ROOT, SRC_DIR, Task, bytes_fingerprint

MIN_CALLS = 100
WORK_DIR = BENCH_DIR / ".work"
CLOUD_CSV = WORK_DIR / "cloud2d.csv"


def _fx(name: str) -> str:
    return str((SRC_DIR / "dustgaps" / "fixtures" / f"{name}.json").relative_to(REPO_ROOT))


# (metric name, argv after "python -m dustgaps.cli")
CALLS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("validate", ("validate", _fx("gd2"))),
    ("hull", ("hull", _fx("gd2"))),
    ("kappa", ("kappa", _fx("cantor"), "--depth", "10", "--delta", "1/100", "--delta", "1/1000")),
    ("ratios", ("ratios", _fx("mixed"), "--theta", "1/24")),
    ("bound", ("bound", _fx("mixed"))),
    ("gaps_exact", ("gaps", _fx("mixed"), "--exact", "--cutoff", "1/1000")),
    ("gaps_metric", ("gaps", _fx("mixed"), "--metric", "--noise-floor", "1/100", "--depth", "10")),
    ("algdep_from_gaps", ("algdep", _fx("gd2"), "--from-gaps")),
    ("verify_yzx", ("verify", _fx("mixed"), "--yzx")),
    ("verify_sandwich", ("verify", _fx("mixed"), "--sandwich", "--theta", "1/24")),
    ("verify_commensurability", ("verify", _fx("cantor"), "--commensurability", _fx("iterate2-cantor"))),
    ("prune", ("prune", _fx("overlap3"), "--assert-full-measure")),
    ("gaps_metric_cloud", ("gaps", "--metric", "--cloud", str(CLOUD_CSV.relative_to(REPO_ROOT)), "--noise-floor", "0.01")),
)


def write_cloud_csv() -> None:
    """A 2-D dust: the product of two depth-5 Cantor clouds (1,024 points)."""
    line = np.zeros(1)
    for _ in range(5):
        line = np.concatenate([line / 3, 2 / 3 + line / 3])
    WORK_DIR.mkdir(exist_ok=True)
    rows = [f"{float(x)!r},{float(y)!r}" for x in line for y in line / 2]
    CLOUD_CSV.write_text("\n".join(rows) + "\n")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes


def run_cli(argv: tuple[str, ...], env: dict) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "dustgaps.cli", *argv],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return CliResult(proc.returncode, proc.stdout)


def _fp(res: CliResult) -> dict:
    return {"code": res.code, "stdout": bytes_fingerprint(res.stdout)}


class Workload:
    name = "cli"

    def __init__(self, seed: int, goldens: dict):
        self.goldens = goldens
        write_cloud_csv()
        self.env = cli_env()
        rng = random.Random(seed)
        order: list[tuple[str, tuple[str, ...]]] = []
        while len(order) < MIN_CALLS:
            block = list(CALLS)
            rng.shuffle(block)
            order += block
        self.tasks = [
            Task(f"cli/{name}", lambda a=argv: run_cli(a, self.env), _fp) for name, argv in order
        ]

    def make_pass(self) -> list[Task]:
        return list(self.tasks)
