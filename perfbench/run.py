"""Benchmark entry point.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 22 --trace 0

Run from the repository root.  The command starts the workload in fresh
processes with BLAS/OpenMP threads pinned to 1: two that only set up (for
the set-up time median) and one that sets up and then runs passes of the
seeded task list, one task at a time, for about ``--seconds`` (the last
pass is the one that ends nearest that time; a pass is never cut).  A
task's latency is its median over the passes.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass (see README.md).  The last line of
standard output is one JSON object; the exit code is 1 if any task failed
its check and 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from common import (
    REPO_ROOT,
    SRC_DIR,
    CheckFailed,
    ensure_src_on_path,
    golden_check,
    load_goldens,
    percentile,
)

WORKLOADS = ("exact", "covers", "clouds", "cli")
DEFAULT_SEED = 20260818
SETUP_SAMPLES = 3
THREAD_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "pass_s": "s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# subcommands of the cli workload, as named in cli_calls.CALLS
CLI_NAMES = (
    "validate",
    "hull",
    "kappa",
    "ratios",
    "bound",
    "gaps_exact",
    "gaps_metric",
    "algdep_from_gaps",
    "verify_yzx",
    "verify_sandwich",
    "verify_commensurability",
    "prune",
    "gaps_metric_cloud",
)
# per-layer metrics: (name, unit); see README.md for what each should move
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("exactnum.factor.calls", "count"),
    ("exactnum.factor.self_s", "s"),
    ("exactnum.nonneg_solve.calls", "count"),
    ("exactnum.nonneg_solve.self_s", "s"),
    ("exactnum.qrank.calls", "count"),
    ("exactnum.qrank.self_s", "s"),
    ("analysis.cone_contains_q.calls", "count"),
    ("analysis.cone_contains_q.self_s", "s"),
    ("analysis.cone_contains_q.distinct_frac", "ratio"),
    ("analysis.ratios_of.calls", "count"),
    ("analysis.ratios_of.self_s", "s"),
    ("analysis.verify_sandwich.calls", "count"),
    ("analysis.verify_sandwich.self_s", "s"),
    ("analysis.algdep_from_gaps.self_s", "s"),
    ("analysis.prune_to_ssc.self_s", "s"),
    ("symgaps.build.self_s", "s"),
    ("symgaps.enumerate_gaps.calls", "count"),
    ("symgaps.enumerate_gaps.self_s", "s"),
    ("symgaps.enumerate_gaps.values", "count"),
    ("symgaps.realization_vertices.calls", "count"),
    ("symgaps.realization_vertices.self_s", "s"),
    ("symgaps.contains.calls", "count"),
    ("symgaps.contains.distinct_frac", "ratio"),
    ("symgaps.cycle_products.self_s", "s"),
    ("model.hulls.calls", "count"),
    ("model.hulls.self_s", "s"),
    ("model.separation_check.calls", "count"),
    ("model.separation_check.self_s", "s"),
    ("model.cover_intervals.calls", "count"),
    ("model.cover_intervals.self_s", "s"),
    ("model.cover_intervals.intervals", "count"),
    ("model.approximate.self_s", "s"),
    ("model.approximate.points", "count"),
    ("model.path_products.calls", "count"),
    ("model.path_products.self_s", "s"),
    ("model.hausdorff_distance.self_s", "s"),
    ("metgaps.kappa.calls", "count"),
    ("metgaps.kappa.d1.self_s", "s"),
    ("metgaps.kappa.d2.self_s", "s"),
    ("metgaps.kappa.d3.self_s", "s"),
    ("metgaps.merge_heights.d1.self_s", "s"),
    ("metgaps.merge_heights.d2_small.self_s", "s"),
    ("metgaps.merge_heights.d3_small.self_s", "s"),
    ("metgaps.merge_heights.d2_large.self_s", "s"),
    ("metgaps.metric_gaps.self_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.{name}.wall_s", "s") for name in CLI_NAMES),
    ("cli.stdout_bytes", "bytes"),
    ("bench.pass_untraced_s", "s"),
    ("bench.pass_traced_s", "s"),
    ("bench.trace_overhead_s", "s"),
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dustgaps.cli; "
    "print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 5


# ------------------------------------------------------------------ worker


def _workload_module(name: str):
    if name == "exact":
        import exact as mod
    elif name == "covers":
        import covers as mod
    elif name == "clouds":
        import clouds as mod
    else:
        import cli_calls as mod
    return mod


def _run_pass(workload, tasks, latencies: list, failures: list, tracer=None, outputs=None) -> float:
    """Run one task list in order; returns the pass time, the sum of its
    task latencies.

    Every task starts from a collected heap, so that garbage an earlier task
    left behind is not collected on this task's clock: otherwise a task's
    time would depend on which tasks the seed put before it.  The
    collections between tasks are not timed.
    """
    spent = 0.0
    for task in tasks:
        gc.collect()
        t0 = time.perf_counter()
        span = tracer.begin("bench.task") if tracer else None
        try:
            out = task.call()
            if outputs is not None:
                outputs.append(out)
            golden_check(workload.goldens, task, out)
        except CheckFailed as exc:
            failures.append(str(exc))
        except Exception:  # a task that raises counts as failed; keep going
            failures.append(f"{task.key}: {traceback.format_exc(limit=3)}")
        finally:
            if tracer:
                tracer.end(span)
        latencies.append(time.perf_counter() - t0)
        spent += latencies[-1]
    return spent


def _peak_rss_mib(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cli_layers(tasks, latencies: list, outputs: list, env: dict) -> dict:
    """Median wall time per subcommand, stdout volume, and import time."""
    walls: dict[str, list[float]] = {n: [] for n in CLI_NAMES}
    for task, wall in zip(tasks, latencies):
        walls[task.key.split("/", 1)[1]].append(wall)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        imports.append(float(out.stdout.strip()))
    layers = {f"cli.{n}.wall_s": statistics.median(w) for n, w in walls.items() if w}
    layers["cli.import_s"] = statistics.median(imports)
    layers["cli.stdout_bytes"] = sum(len(res.stdout) for res in outputs)
    return layers


def worker(args) -> dict:
    ensure_src_on_path()
    mod = _workload_module(args.workload)
    workload = mod.Workload(args.seed, load_goldens(args.workload))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}
    # set-up objects (goldens, inputs, task lists) live for the whole run;
    # frozen, they add nothing to the collections between and inside tasks
    gc.collect()
    gc.freeze()
    latencies: list[float] = []
    failures: list[str] = []
    passes: list[float] = []
    result: dict = {"setup_s": setup_s}
    if args.trace:
        from spans import Tracer

        passes.append(_run_pass(workload, workload.make_pass(), latencies, failures))
        tracer = Tracer()
        tasks = workload.make_pass()
        outputs: list = []
        tracer.install()
        try:
            traced = _run_pass(workload, tasks, latencies, failures, tracer, outputs)
        finally:
            tracer.uninstall()
        layers = _library_layers(tracer)
        if args.workload == "cli":
            layers.update(_cli_layers(tasks, latencies[-len(tasks):], outputs, workload.env))
        layers["bench.pass_untraced_s"] = passes[0]
        layers["bench.pass_traced_s"] = traced
        layers["bench.trace_overhead_s"] = traced - passes[0]
        result["layers"] = layers
        result["self_total_s"] = sum(
            v for k, v in tracer.self_times().items() if k != "bench.task"
        )
    else:
        # every pass runs the same task list in the same order, so each task
        # gets one latency per pass; its median over the passes is its latency
        deadline = time.monotonic() + args.seconds
        per_pass: list[list[float]] = []
        while True:
            per_pass.append([])
            started = time.monotonic()
            passes.append(_run_pass(workload, workload.make_pass(), per_pass[-1], failures))
            latencies += per_pass[-1]
            # another pass only if it would end nearer the deadline than this one
            now = time.monotonic()
            if now + (now - started) / 2 > deadline:
                break
        result["task_latencies"] = [statistics.median(col) for col in zip(*per_pass)]
    result.update(
        passes=passes,
        attempted=len(latencies),
        failed=len(failures),
        failures=failures[:5],
        peak_rss_mib=_peak_rss_mib(args.workload),
    )
    return result


def _library_layers(tracer) -> dict:
    self_s = tracer.self_times()
    layers: dict = {}
    for name, _unit in PER_LAYER:
        if name.startswith(("cli.", "bench.")):
            continue
        base, stat = name.rsplit(".", 1)
        if stat == "self_s":
            layers[name] = self_s.get(base, 0.0)
        elif stat == "calls":
            layers[name] = tracer.calls.get(base, 0)
        elif stat == "distinct_frac":
            layers[name] = tracer.distinct_frac(base)
        else:
            layers[name] = tracer.sizes.get(name, 0)
    return layers


# ------------------------------------------------------------ orchestrator


def host_info() -> dict:
    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_pin": THREAD_PIN,
        "commit": commit,
    }


def _spawn(args, extra: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PIN)
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--t0",
        repr(time.monotonic()),
        *extra,
    ]
    proc = subprocess.run(argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(args) -> int:
    # set-up time is an end-to-end metric only; a traced run skips the extras
    extra_setups = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [_spawn(args, ["--setup-only"])["setup_s"] for _ in range(extra_setups)]
    res = _spawn(args, [])
    setups.append(res["setup_s"])
    for failure in res["failures"]:
        sys.stderr.write(f"FAILED {failure}\n")
    print("host " + json.dumps(host_info(), sort_keys=True))
    if args.trace:
        metrics = {name: {"value": res["layers"].get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        print(
            f"{args.workload} traced: self times {res['self_total_s']:.3f} s of "
            f"{res['layers']['bench.pass_traced_s']:.3f} s traced pass; overhead "
            f"{res['layers']['bench.trace_overhead_s']:+.3f} s"
        )
    else:
        error_rate = res["failed"] / res["attempted"]
        lat = res["task_latencies"]
        values = {
            "pass_s": statistics.median(res["passes"]),
            "task_p50_s": percentile(lat, 0.5),
            "task_p90_s": percentile(lat, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            f"{args.workload} seed={args.seed}: passes={len(res['passes'])} "
            f"tasks/pass={len(lat)} setups={len(setups)} error_rate={error_rate:.4f}"
        )
        for k, v in values.items():
            print(f"  {k:14s} {v:12.6f} {END_TO_END_UNITS[k]}")
        print(f"  {'error_rate':14s} {error_rate:12.6f} failed/attempted")
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if res["failed"] == 0 else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "dustgaps" / "__init__.py").is_file():
        sys.stderr.write(f"no dustgaps sources under {SRC_DIR}; run from a full checkout\n")
        return 2
    if args.worker:
        print(json.dumps(worker(args)))
        return 0
    try:
        return orchestrate(args)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
