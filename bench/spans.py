"""Span tracing of the rma_tse layers, installed from outside the package.

Every public function (a name in a layer module's ``__all__``) is wrapped,
and every global of every ``rma_tse`` module that refers to it is patched,
so calls between layers are caught as well, for example ``ensemble`` ->
``acc.acc_iotse_table``, ``verify_all`` -> ``trellis_dp_tables`` and
``cli`` -> ``r_point``.  Private helpers are never wrapped, so refactors
behind the public names cannot break the tracer.

``combinatorics`` is not traced: its helpers are leaves called millions of
times per pass, and a wrapper on each call would swamp the time measured.
Their cost stays in the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from fractions import Fraction

LAYERS = ("acc", "ensemble", "asymptotic", "oracles", "cli")

# Span durations kept per name for percentile metrics.
_PERCENTILE_NAMES = ("asymptotic.r_point",)


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


def _observe(counters: dict, name: str, result) -> None:
    """Count the work a public call returned, at the layer boundary."""
    if name == "acc.acc_iotse_table":
        counters["acc.entries"] = counters.get("acc.entries", 0) + len(result.entries)
    elif name == "ensemble.ensemble_table":
        counters["ensemble.classes"] = counters.get("ensemble.classes", 0) + len(result)
        bits = max((_bits(v) for v in result.values()), default=0)
        counters["ensemble.max_bits"] = max(counters.get("ensemble.max_bits", 0), bits)
    elif name in ("ensemble.ensemble_tse", "ensemble.ensemble_iowe"):
        value = result.value if name == "ensemble.ensemble_tse" else result
        counters["ensemble.max_bits"] = max(counters.get("ensemble.max_bits", 0), _bits(value))
    elif name == "oracles.verify_all":
        checked = sum(c.checked for c in result.comparisons)
        counters["oracles.keys_checked"] = counters.get("oracles.keys_checked", 0) + checked


class Tracer:
    """In-memory spans of one pass: [name, start, end, parent index or -1].

    Wrappers record only while ``active`` is true, so the benchmark's own
    checks, which also call public functions, leave no spans.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.counters: dict = {}
        self.active = False
        self._stack: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rma_tse.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rma_tse" and not mod_name.startswith("rma_tse."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _observe(counters, name, result)
            return result

        return functools.wraps(fn)(traced)

    def metrics(self) -> dict:
        """Self time and calls per public function and per layer.

        Self time is a span's duration minus the time its child spans
        cover; children nest inside their parent, so they never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        durations: dict = {n: [] for n in _PERCENTILE_NAMES}
        top_level = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
            if name in durations:
                durations[name].append(end - start)
            if parent < 0:
                top_level += end - start
        for name, values in durations.items():
            if values:
                out[f"{name}.p50_s"] = statistics.median(values)
        out.update(self.counters)
        out["trace.top_level_s"] = top_level
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
