"""Outside-in layer trace for one qlbatch process.

The tracer rebinds the public functions that `qlbatch.pipeline` and
`qlbatch.cli` call, in those two modules' namespaces only, so every call the
pipeline makes into a layer records a span.  No file of the package is
edited, and `uninstall()` restores the original bindings.  A name missing
from a module is skipped: its layer then has no spans instead of crashing the
run.

Spans are kept in memory as (id, name, start, end, parent id, request id)
and written out by `write()` when the run ends.  A layer's self time is its
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
import time
from collections import defaultdict

# module -> names rebound in it (the calls that module makes into layers)
TARGETS = {
    "qlbatch.pipeline": (
        "sieve_factor_window",
        "divisor_terms",
        "realized_divisors",
        "build_coefficient_table",
        "build_node_problem",
        "fast_eval",
        "direct_eval",
        "assemble_F",
        "compute_Z",
        "oracle_sweep",
    ),
    "qlbatch.cli": ("run_batch",),
}

ROOT = "cli.main"


def _layer_name(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return f"{module.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder plus per-divisor rows and per-request counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.divisors: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.n_divisors: dict = defaultdict(int)
        self.request = -1
        self._stack: list = []
        self._next_id = 0
        self._pending: dict = {}
        self._saved: list = []

    # -- spans ----------------------------------------------------------
    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent, start: float) -> float:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.request))
        return end - start

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid, parent, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start)

    def begin_request(self, request: int) -> None:
        self.request = request

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name: str, fn):
        layer = _layer_name(fn)
        special = {
            "build_node_problem": self._wrap_build,
            "fast_eval": self._wrap_fast,
            "direct_eval": self._wrap_direct,
            "run_batch": self._wrap_run_batch,
            "realized_divisors": self._wrap_realized,
        }.get(name)
        if special is not None:
            return special(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return wrapper

    def _wrap_build(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(a, table, window, *args, **kwargs):
            sid, parent, start = self._open()
            try:
                built = fn(a, table, window, *args, **kwargs)
            finally:
                seconds = self._close(layer, sid, parent, start)
            if built is not None:
                problem, grid = built
                row = {"request": self.request, "t": table.t, "a": int(a),
                       "K": problem.K, "H": grid.H, "R": problem.coeffs.shape[0],
                       "path": "none", "seconds": 0.0, "build_seconds": seconds}
                self.divisors.append(row)
                self._pending[id(problem)] = row
            return built

        return wrapper

    def _eval_row(self, problem, path: str, seconds: float) -> None:
        row = self._pending.pop(id(problem), None)
        if row is not None:
            row["path"] = path
            row["seconds"] = seconds

    def _wrap_fast(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(p, g, eps3, *args, **kwargs):
            counter = kwargs.get("counter", args[0] if args else None)
            before = counter.get("fast_eval_setup_calls") if counter is not None else None
            sid, parent, start = self._open()
            path = "unknown"
            try:
                out = fn(p, g, eps3, *args, **kwargs)
                if before is not None:
                    raised = counter.get("fast_eval_setup_calls") > before
                    path = "transform" if raised else "direct"
                return out
            finally:
                seconds = self._close(f"{layer}.{path}", sid, parent, start)
                self._eval_row(p, path, seconds)

        return wrapper

    def _wrap_direct(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(p, g, *args, **kwargs):
            sid, parent, start = self._open()
            try:
                return fn(p, g, *args, **kwargs)
            finally:
                self._eval_row(p, "direct_eval", self._close(layer, sid, parent, start))

        return wrapper

    def _wrap_run_batch(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            bucket = self.counts[self.request]
            for key, value in result.counts.items():
                bucket[key] += value
            return result

        return wrapper

    def _wrap_realized(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(layer, fn, *args, **kwargs)
            self.n_divisors[self.request] += len(out)
            return out

        return wrapper

    def install(self, targets: dict = TARGETS) -> list:
        """Rebind every target name present; return the names skipped."""
        skipped = []
        for modname, names in targets.items():
            module = sys.modules.get(modname)
            for name in names:
                original = getattr(module, name, None) if module is not None else None
                if original is None:
                    skipped.append(f"{modname}.{name}")
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(name, original))
        return skipped

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict:
        """{(request, span name): summed self seconds}."""
        child_time: dict = defaultdict(float)
        for _sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        for sid, name, start, end, _parent, req in self.spans:
            out[(req, name)] += (end - start) - child_time[sid]
        return out

    def call_counts(self) -> dict:
        """{(request, span name): number of spans}."""
        out: dict = defaultdict(int)
        for _sid, name, _start, _end, _parent, req in self.spans:
            out[(req, name)] += 1
        return out

    def write(self, spans_path: str, divisors_path: str) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
        fields = ["request", "t", "a", "K", "H", "R", "path", "seconds", "build_seconds"]
        with open(divisors_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(self.divisors)
