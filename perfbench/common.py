"""Shared pieces of the benchmark: tasks, fingerprints, goldens, statistics.

A task is one call of a public dustgaps entry point plus its output check.
Each workload module exposes ``setup(seed, goldens)`` returning a workload
object whose ``make_pass()`` builds a fresh, seeded task list.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "goldens"

# longest canonical JSON kept verbatim in a golden; longer outputs are digested
_VERBATIM_LIMIT = 240


def ensure_src_on_path() -> None:
    """Make the checkout's ``src`` importable (the package is not installed)."""
    if not (SRC_DIR / "dustgaps" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dustgaps sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def fingerprint(value: Any) -> Any:
    """Canonical, comparable form of a JSON-able output.

    Short outputs are kept verbatim (exact rationals stay formatted strings);
    long ones become ``sha256:<hex>:<length>`` of their canonical JSON.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if len(text) <= _VERBATIM_LIMIT:
        return json.loads(text)
    digest = hashlib.sha256(text.encode()).hexdigest()[:24]
    return f"sha256:{digest}:{len(text)}"


def bytes_fingerprint(data: bytes) -> str:
    return f"sha256:{hashlib.sha256(data).hexdigest()[:24]}:{len(data)}"


class CheckFailed(AssertionError):
    """A task's output did not match its golden or oracle."""


@dataclass
class Task:
    """``call()`` runs the entry point; ``check(output)`` raises CheckFailed.

    ``key`` names the golden entry; ``fp`` turns the output into the
    fingerprint stored there.  Tasks with their own oracle set ``check``.
    """

    key: str
    call: Callable[[], Any]
    fp: Optional[Callable[[Any], Any]] = None
    check: Optional[Callable[[Any], None]] = None


def golden_check(goldens: dict, task: Task, output: Any) -> None:
    if task.check is not None:
        task.check(output)
        return
    if task.key not in goldens:
        raise CheckFailed(f"no golden for {task.key}")
    got = fingerprint(task.fp(output))
    if got != goldens[task.key]:
        raise CheckFailed(f"{task.key}: got {got!r}, golden {goldens[task.key]!r}")


def load_goldens(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    with path.open() as fh:
        return json.load(fh)


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    all order statistics.  Unlike a single order statistic it moves
    smoothly when two tasks of different cost swap ranks under noise."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = [
        betainc(a, b, (i + 1) / n) - betainc(a, b, i / n) for i in range(n)
    ]
    return float(sum(w * x for w, x in zip(weights, ordered)))
