"""Tests of the benchmark itself (not of dustgaps).

    python3 -m pytest -q perfbench/tests

Smoke runs use a cheap slice of each workload's task list; the full passes
are exercised by ``perfbench/run.py`` itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.ensure_src_on_path()

import run  # noqa: E402
from spans import Tracer  # noqa: E402

REPO = BENCH.parent

# cheap slices of each workload: task keys starting with one of these
SMOKE = {
    "exact": ("pool03/", "pool08/", "mixed/"),
    "covers": tuple(f"{fx}/cover_intervals/{d}" for fx in ("cantor", "gd2") for d in range(1, 7))
    + ("overlap3/hulls", "gd2/path_products/", "cantor/separation_check"),
    "clouds": ("u2_1k/kappa/", "cantor/kappa/", "u2_4k/merge_heights"),
    "cli": ("cli/validate", "cli/hull", "cli/gaps_exact"),
}


def _workload(name: str, seed: int = 1, goldens=None):
    mod = run._workload_module(name)
    return mod.Workload(seed, common.load_goldens(name) if goldens is None else goldens)


def _smoke_tasks(workload) -> list:
    tasks = [t for t in workload.make_pass() if t.key.startswith(SMOKE[workload.name])]
    if workload.name == "cli":
        # one call per subcommand is enough
        seen: dict = {}
        tasks = [seen.setdefault(t.key, t) for t in tasks if t.key not in seen]
    return tasks


def _run(workload, tasks, tracer=None):
    latencies: list = []
    failures: list = []
    elapsed = run._run_pass(workload, tasks, latencies, failures, tracer)
    return elapsed, latencies, failures


def test_benchmark_json_matches_the_runner():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
def test_smoke_slice_is_clean(name, seed):
    workload = _workload(name, seed)
    tasks = _smoke_tasks(workload)
    assert len(tasks) >= 3
    _, latencies, failures = _run(workload, tasks)
    assert failures == []
    assert len(latencies) == len(tasks)


def test_every_pass_has_at_least_100_tasks():
    for name in ("exact", "covers", "cli"):
        assert len(_workload(name).make_pass()) >= 100, name


def test_corrupted_golden_fails_the_task():
    goldens = dict(common.load_goldens("exact"))
    key = "mixed/enumerate/1/1000000"
    goldens[key] = "sha256:000000000000000000000000:1"
    workload = _workload("exact", goldens=goldens)
    tasks = [t for t in workload.make_pass() if t.key.startswith("mixed/")]
    _, latencies, failures = _run(workload, tasks)
    assert len(failures) == 1 and key in failures[0]
    assert len(failures) / len(latencies) > 0


def test_failed_tasks_make_the_command_fail(monkeypatch, capsys):
    canned = {
        "setup_s": 0.1,
        "passes": [1.0],
        "task_latencies": [0.5, 0.5],
        "attempted": 2,
        "failed": 1,
        "failures": ["x: mismatch"],
        "peak_rss_mib": 10.0,
    }
    monkeypatch.setattr(run, "_spawn", lambda args, extra: dict(canned))
    args = run.parse_args(["--workload", "exact", "--seed", "1", "--seconds", "1"])
    assert run.orchestrate(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_seeds_change_the_instances_but_not_the_outputs():
    import exact

    one, two = (dict((n, g) for n, g, _ in _workload("exact", seed).systems) for seed in (1, 2))
    assert one.keys() == two.keys()
    assert any(one[n] != two[n] for n in one)
    g = exact.pool()[0]
    assert exact.mirrored(exact.mirrored(g)) == g
    assert exact.plan_system(exact.mirrored(g)) == exact.plan_system(g)


def _traced_slice():
    workload = _workload("covers")
    tasks = _smoke_tasks(workload)
    tracer = Tracer()
    tracer.install()
    try:
        elapsed, _, failures = _run(workload, tasks, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer, elapsed


def test_self_times_sum_to_at_most_the_traced_pass():
    tracer, elapsed = _traced_slice()
    self_s = tracer.self_times()
    library = sum(v for k, v in self_s.items() if k != "bench.task")
    assert library > 0
    assert library <= sum(self_s.values()) <= elapsed
    layers = run._library_layers(tracer)
    assert layers["model.cover_intervals.calls"] > 0


def test_traced_counts_repeat_exactly():
    first, _ = _traced_slice()
    second, _ = _traced_slice()
    assert dict(first.calls) == dict(second.calls)
    assert dict(first.sizes) == dict(second.sizes)


def test_tracer_restores_the_library():
    from dustgaps import analysis, exactnum

    original = exactnum.nonneg_solve
    tracer = Tracer()
    tracer.install()
    assert analysis.nonneg_solve is not original
    tracer.uninstall()
    assert analysis.nonneg_solve is original and exactnum.nonneg_solve is original


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
