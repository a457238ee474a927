"""Span tracing at gridloc's module boundaries, installed from outside.

The tracer replaces every public function of the traced modules with a thin
wrapper, in every traced module namespace that refers to it, so calls made
through `module.func` and through names imported with `from .x import func`
are both seen. Each call records a span (name, start, end, parent, run id).
Self time is computed as spans close: a span's duration minus the time its
children cover. Spans are kept in memory, up to a cap, and written once at
the end; the per-function aggregates cover every call regardless of the cap.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

MODULES = ("channel", "protocol", "sim", "estimator", "geometry", "harness",
           "cli")

# Spans kept for the span file; beyond this only the aggregates grow.
SPAN_CAP = 200_000


def public_functions(module) -> dict[str, Callable]:
    """Functions defined in the module whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """Records spans for calls into the wrapped gridloc functions."""

    def __init__(self):
        self.modules = {m: importlib.import_module(f"gridloc.{m}")
                        for m in MODULES}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        # Counters observed on return values (deliveries, fix methods, bytes).
        self.counters: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self.run_id = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._wrappers: dict[int, Callable] = {}  # by id of the original
        self._observers: dict[str, Callable] = {
            "channel.sample_rss": self._observe_delivery,
            "estimator.localize": self._observe_fix,
        }
        self.t_origin = perf_counter()

    # -- counters -------------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _observe_delivery(self, args, kwargs, result) -> None:
        self.count("channel.delivered" if result is not None
                   else "channel.not_received")

    def _observe_fix(self, args, kwargs, result) -> None:
        estimate = result[0]
        self.count(f"estimator.method.{estimate.method.value}")
        if estimate.fallback_centroid:
            self.count("estimator.fallback_centroid")

    def _observe_write(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.count("harness.bytes_written", os.path.getsize(path))

    # -- install / remove -----------------------------------------------
    def _build_wrappers(self) -> None:
        for short, module in self.modules.items():
            for name, fn in public_functions(module).items():
                qualname = f"{short}.{name}"
                observer = self._observers.get(qualname)
                if qualname.startswith("harness.write_"):
                    observer = self._observe_write
                self._wrappers[id(fn)] = self._wrap(qualname, fn, observer)

    def install(self) -> None:
        if not self._wrappers:
            self._build_wrappers()
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, qualname: str, fn: Callable,
              observer: Optional[Callable]) -> Callable:
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        s_name, s_parent, s_run = self.span_name, self.span_parent, self.span_run
        s_start, s_end = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if len(s_name) < SPAN_CAP:
                span_id = len(s_name)
                s_name.append(idx)
                s_parent.append(parent)
                s_run.append(tracer.run_id)
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                span_id = -1
                tracer.spans_dropped += 1
            frame = [0.0, 0.0, span_id]  # start, child time, span id
            stack.append(frame)
            frame[0] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                total_s[idx] += duration
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id >= 0:
                    s_start[span_id] = start - tracer.t_origin
                    s_end[span_id] = end - tracer.t_origin
            if observer is not None:
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results --------------------------------------------------------
    def snapshot(self) -> dict:
        """Counts and times so far, keyed by function or counter name."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "total_s": dict(zip(self.names, self.total_s)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": dict(self.counters),
        }

    def write_spans(self, path: Path) -> None:
        """All kept spans as CSV, times in microseconds from tracer start."""
        lines = [f"# spans_kept={len(self.span_name)} "
                 f"spans_dropped={self.spans_dropped}",
                 "span,parent,run,name,start_us,end_us"]
        names = self.names
        for i in range(len(self.span_name)):
            lines.append(f"{i},{self.span_parent[i]},{self.span_run[i]},"
                         f"{names[self.span_name[i]]},"
                         f"{self.span_start[i] * 1e6:.3f},"
                         f"{self.span_end[i] * 1e6:.3f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def diff(before: dict, after: dict) -> dict:
    """What happened between two snapshots."""
    out = {}
    for section in ("calls", "total_s", "self_s", "counters"):
        b = before[section]
        out[section] = {k: v - b.get(k, 0) for k, v in after[section].items()}
    return out


def deterministic_counts(delta: dict) -> dict[str, int]:
    """The parts of a snapshot difference that must repeat exactly."""
    counts = {f"{k}.calls": v for k, v in delta["calls"].items()}
    counts.update(delta["counters"])
    return {k: v for k, v in sorted(counts.items()) if v}


def count_mismatches(a: dict[str, int], b: dict[str, int]) -> list[str]:
    """Names whose counts differ between two traced passes of one input."""
    return [f"{k}: {a.get(k, 0)} != {b.get(k, 0)}"
            for k in sorted(set(a) | set(b)) if a.get(k, 0) != b.get(k, 0)]
