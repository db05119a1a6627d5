"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces each function named in `LAYERS` with a wrapper
in every `bct.*` module namespace that bound it (modules import each other
with `from .x import f`, and `bct/__init__` re-exports), and puts everything
back on exit.  `Kernel` construction is timed by wrapping
`Kernel.__post_init__`, so that `Kernel` stays a class.

Each call records one span (name, parent, start, end) in flat arrays, with
CPU-time stamps like the rest of the benchmark (see `worker.py`); the
per-layer metrics are derived from the spans after the run: a layer's
`self_s` is its spans' duration minus the part their child spans cover, and
`total_s` counts only the outermost span of a name, so recursion through a
wrapper is not counted twice.  Counters are computed from the call's
arguments and result, outside the span's interval.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# span name -> the metrics reported for it, besides `trace.overhead_frac`.
LAYERS = {
    "labels.enumerate_pure_labels": ("calls", "self_s", "labels_out", "repeat_frac"),
    "labels.regroup": ("calls", "repeat_frac"),
    "labels.apply_moves_tracked": ("calls", "self_s"),
    "kernels.Kernel": ("calls", "self_s", "rows_in"),
    "kernels.extend_at": ("calls", "self_s", "total_s"),
    "kernels.parallel_compose": ("calls", "self_s", "total_s"),
    "kernels.sequential_compose": ("calls", "self_s"),
    "kernels.apply": ("calls", "self_s"),
    "states.apply_effect_at": ("calls", "self_s"),
    "states.tensor_states": ("calls", "self_s", "labels_out"),
    "states.apply_moves_to_vector": ("calls", "self_s"),
    "dilation.dilated_apply": ("calls", "total_s"),
    "dilation.build_processor": ("total_s", "rows_out"),
    "dilation.decompose_channel": ("calls", "self_s"),
    "dilation.realize_instrument": ("self_s", "total_s"),
    "tomography.rank": ("calls", "self_s", "rows_in", "nnz_in"),
    "tomography.span_report": ("total_s",),
    "coherence.check_pentagon": ("total_s",),
    "coherence.check_hexagon": ("total_s",),
    "coherence.check_sliding": ("total_s",),
    "coherence.check_bifunctoriality": ("total_s",),
    "coherence.check_probabilistic_compatibility": ("total_s",),
    "serial.validate_document": ("calls", "self_s"),
    "serial.dumps": ("self_s", "bytes_out"),
    "cli.main": ("total_s", "self_s"),
}

# Counters taken from a call's arguments (before it runs, since `Kernel`
# replaces its rows) or from its result.
BEFORE = {
    "kernels.Kernel": lambda args: {"rows_in": len(args[0].rows)},
    "tomography.rank": lambda args: {"rows_in": len(args[0]),
                                     "nnz_in": sum(len(v.coeffs) for v in args[0])},
}
AFTER = {
    "labels.enumerate_pure_labels": lambda result: {"labels_out": len(result)},
    "states.tensor_states": lambda result: {"labels_out": len(result.coeffs)},
    "dilation.build_processor": lambda result: {"rows_out": len(result.kernel.rows)},
    "serial.dumps": lambda result: {"bytes_out": len(result.encode("utf-8"))},
}
# Layers whose `repeat_frac` is the share of calls with arguments already
# seen in this run: what a cache keyed on the arguments could serve.
REPEAT = ("labels.enumerate_pure_labels", "labels.regroup")

UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
         "total_s": ("s", "lower"), "labels_out": ("count", "lower"),
         "rows_in": ("count", "lower"), "rows_out": ("count", "lower"),
         "nnz_in": ("count", "lower"), "bytes_out": ("bytes", "lower"),
         "repeat_frac": ("frac", "higher")}

OVERHEAD = "trace.overhead_frac"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{span}.{stat}", *UNITS[stat])
           for span, stats in LAYERS.items() for stat in stats]
    out.append((OVERHEAD, "frac", "lower"))
    return out


def is_count(metric: str) -> bool:
    """Counts repeat exactly between runs of the same code; times do not."""
    return not metric.endswith(("_s", OVERHEAD))


def _target(span: str):
    """(object holding the attribute, attribute name) for a span name."""
    module, name = span.split(".")
    mod = importlib.import_module(f"bct.{module}")
    if name == "Kernel":
        return mod.Kernel, "__post_init__"
    return mod, name


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.name = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._depth = [0] * len(self.names)
        self.counters: dict[str, int] = {}
        self._seen: dict[str, set] = {span: set() for span in REPEAT}
        self._repeats: dict[str, int] = {span: 0 for span in REPEAT}

    def _count(self, span: str, values: dict[str, int]) -> None:
        for key, value in values.items():
            key = f"{span}.{key}"
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, span: str, fn):
        nid = self.names.index(span)
        before, after = BEFORE.get(span), AFTER.get(span)
        signature = inspect.signature(fn) if span in REPEAT else None
        cpu_ns = time.process_time_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                self._count(span, before(args))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                seen = self._seen[span]
                if key in seen:
                    self._repeats[span] += 1
                else:
                    seen.add(key)
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.outermost.append(self._depth[nid] == 0)
            self.end.append(0)
            self._stack.append(index)
            self._depth[nid] += 1
            self.start.append(cpu_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = cpu_ns()
                self._depth[nid] -= 1
                self._stack.pop()
            if after is not None:
                self._count(span, after(result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function wherever a `bct` module bound it."""
        targets = {span: _target(span) for span in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bct" or n.startswith("bct."))]
        replaced = []
        try:
            for span, (owner, attr) in targets.items():
                original = getattr(owner, attr)
                wrapper = self._wrap(span, original)
                if attr == "__post_init__":
                    places = [(owner, attr)]
                else:
                    places = [(m, key) for m in modules
                              for key, value in vars(m).items() if value is original]
                for place, key in places:
                    setattr(place, key, wrapper)
                    replaced.append((place, key, original))
            yield self
        finally:
            for place, key, original in reversed(replaced):
                setattr(place, key, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, from the spans."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        total_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            duration = self.end[i] - self.start[i]
            calls[nid] += 1
            self_ns[nid] += duration - covered[i]
            if self.outermost[i]:
                total_ns[nid] += duration
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            for stat in LAYERS[span]:
                key = f"{span}.{stat}"
                if stat == "calls":
                    out[key] = calls[nid]
                elif stat == "self_s":
                    out[key] = self_ns[nid] / 1e9
                elif stat == "total_s":
                    out[key] = total_ns[nid] / 1e9
                elif stat == "repeat_frac":
                    out[key] = self._repeats[span] / calls[nid] if calls[nid] else 0.0
                else:
                    out[key] = self.counters.get(key, 0)
        return out

    def write(self, path: Path) -> None:
        """Write the spans, start times relative to the first span."""
        base = self.start[0] if self.start else 0
        doc = {"names": self.names,
               "fields": ["name", "parent", "start_ns", "end_ns"],
               "spans": [[self.name[i], self.parent[i], self.start[i] - base,
                          self.end[i] - base] for i in range(len(self.start))]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
