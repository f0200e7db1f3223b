"""In-memory span tracing around dustgaps' public functions.

``Tracer.install()`` replaces each traced function at every module attribute
that names it (``analysis.nonneg_solve`` as well as ``exactnum.nonneg_solve``),
so calls are caught where the caller looks them up; ``uninstall()`` puts the
originals back.  Nothing under ``src/`` changes.  Each span records its name,
start, end and parent; self time is a span's duration minus its children's.
Counts are taken from arguments and return values, so they repeat exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from fractions import Fraction
from typing import Any, Callable, Optional

from dustgaps import analysis, cli, exactnum, metgaps, model, symgaps

MODULES = {
    "exactnum": exactnum,
    "model": model,
    "symgaps": symgaps,
    "metgaps": metgaps,
    "analysis": analysis,
    "cli": cli,
}

# clouds above this many points take the grid backend in merge_heights
DENSE_LIMIT = 4096


def _merge_label(args, kwargs) -> str:
    cloud = args[0] if args else kwargs["cloud"]
    if cloud.dim == 1:
        return "merge_heights.d1"
    size = "large" if cloud.n > DENSE_LIMIT else "small"
    return f"merge_heights.d{cloud.dim}_{size}"


def _kappa_label(args, kwargs) -> str:
    cloud = args[0] if args else kwargs["cloud"]
    return f"kappa.d{cloud.dim}"


# (module, function, label function or None)
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("exactnum", "factor", None),
    ("exactnum", "nonneg_solve", None),
    ("exactnum", "qrank", None),
    ("analysis", "cone_contains_q", None),
    ("analysis", "ratios_of", None),
    ("analysis", "verify_sandwich", None),
    ("analysis", "algdep_from_gaps", None),
    ("analysis", "prune_to_ssc", None),
    ("symgaps", "build", None),
    ("symgaps", "enumerate_gaps", None),
    ("symgaps", "realization_vertices", None),
    ("symgaps", "contains", None),
    ("symgaps", "cycle_products", None),
    ("model", "hulls", None),
    ("model", "separation_check", None),
    ("model", "cover_intervals", None),
    ("model", "approximate", None),
    ("model", "path_products", None),
    ("model", "hausdorff_distance", None),
    ("metgaps", "kappa", _kappa_label),
    ("metgaps", "merge_heights", _merge_label),
    ("metgaps", "metric_gaps", None),
)


def _distinct_key(func: str, args) -> Any:
    if func == "cone_contains_q":
        return (args[0].generators, Fraction(args[1]))
    if func == "contains":
        s = args[0]
        return (s.graph, s.root, Fraction(args[1]))
    return None


def _size(func: str, out: Any) -> Optional[tuple[str, int]]:
    if func == "enumerate_gaps":
        return "values", len(out.values)
    if func == "cover_intervals":
        return "intervals", len(out)
    if func == "approximate":
        return "points", len(out.points)
    return None


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._saved: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module: str, func: str, label, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name = f"{module}.{label(args, kwargs) if label else func}"
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            base = f"{module}.{func}"
            tracer.calls[base] += 1
            key = _distinct_key(func, args)
            if key is not None:
                tracer.keys[base].add(key)
            size = _size(func, out)
            if size is not None:
                tracer.sizes[f"{base}.{size[0]}"] += size[1]
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, func, label in TRACED:
            original = getattr(MODULES[module], func)
            wrapper = self._wrap(module, func, label, original)
            for mod in MODULES.values():
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def distinct_frac(self, base: str) -> float:
        calls = self.calls.get(base, 0)
        return len(self.keys.get(base, ())) / calls if calls else 0.0
