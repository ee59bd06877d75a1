"""Module-boundary spans for the traced benchmark run.

The tracer replaces each public function at the name its *caller* binds it
under (``uavsec.harness.leakage_pair``, not ``uavsec.beamforming.leakage_pair``)
with a wrapper that records one span per call: the layer it belongs to, its
start and end, and the span that was open when it was called. Only calls that
cross a module boundary are wrapped; calls inside a module (``optimal_beta``
into ``phi``) stay untimed, which keeps the tracing cost to a few percent of
a sweep (``trace.overhead_share``). Spans live in memory and are folded into
per-layer totals after each sweep.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (caller module, bound name, layer of the called function).
BOUNDARIES = (
    ("uavsec.cli", "parse_config", "harness"),
    ("uavsec.cli", "run_experiment", "harness"),
    ("uavsec.cli", "write_results", "harness"),
    ("uavsec.cli", "summarize", "harness"),
    ("uavsec.harness", "sample_trajectory", "geometry"),
    ("uavsec.harness", "link_state_at", "geometry"),
    ("uavsec.harness", "optimize_point", "ais"),
    ("uavsec.harness", "run_baseline", "ais"),
    ("uavsec.harness", "leakage_pair", "beamforming"),
    ("uavsec.harness", "beta_grid_oracle", "power_allocation"),
    ("uavsec.harness", "secrecy_rate", "rates"),
    ("uavsec.harness", "secrecy_sum_rate", "rates"),
    ("uavsec.ais", "leakage_pair", "beamforming"),
    ("uavsec.ais", "optimal_beta", "power_allocation"),
    ("uavsec.ais", "f_value", "power_allocation"),
    ("uavsec.ais", "secrecy_rate", "rates"),
    # power_allocation reaches these through the module (``rates.rate_bob``).
    ("uavsec.rates", "rate_bob", "rates"),
    ("uavsec.rates", "rate_eve", "rates"),
)

LAYERS = ("cli", "harness", "geometry", "beamforming", "power_allocation", "rates", "ais")

WINNER_LABELS = ("root1", "root2", "degenerate_root", "endpoint_1", "constant_function")


class Tracer:
    """Collects spans while installed; ``install``/``remove`` patch and restore."""

    def __init__(self):
        # Each span: (parent index or -1, layer, name, start, end).
        self.spans: list = []
        self.winners: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, winners = self.spans, self._stack, self.winners

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (parent, layer, name, start, end)
            label = getattr(result, "winning_candidate", None)
            if label is not None:
                winners[label] += 1
            return result

        return traced

    def install(self):
        """Patch every boundary that exists; names that do not are listed in
        ``absent`` so a refactor that drops one shows up instead of failing."""
        self.absent = []
        for module_name, attr, layer in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, f"{module_name}.{attr}", original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def reset(self):
        self.spans.clear()
        self.winners.clear()

    def layer_totals(self) -> dict:
        """Calls, inclusive and self seconds per layer and per wrapped name,
        plus the rates calls made from inside power-allocation spans, for the
        spans recorded so far.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        by_name: dict[str, dict] = {}
        rates_under_pa = 0
        for index, (parent, layer, name, start, end) in enumerate(self.spans):
            for entry in (totals[layer], by_name.setdefault(name, dict.fromkeys(totals[layer], 0))):
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child_time[index]
            if layer == "rates" and parent >= 0 and self.spans[parent][1] == "power_allocation":
                rates_under_pa += 1
        return {"layers": totals, "by_name": by_name, "rates_under_pa": rates_under_pa}
