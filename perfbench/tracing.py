"""Span tracer for the traced benchmark run, attached from outside risim.

risim modules import each other's functions by name (``from .x import f``),
so a function is wrapped where its caller looks it up: ``tx_ris_channel`` is
patched on ``risim.experiments``, ``angles_to_targets`` on ``risim.channel``.
Each call becomes a span (id, parent, name, start, end, work). Span stacks
are thread-local, because ``--threads`` runs trials on pool threads; a span
opened on a pool thread has no parent. Spans are held in memory and turned
into per-layer metrics, and written out, only when tracing ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter
from typing import NamedTuple

# (module the caller looks the name up in, attribute) -> span name
PATCHES = {
    ("figures", "run_sweep"): "experiments.run_sweep",
    ("experiments", "run_sweep"): "experiments.run_sweep",
    ("experiments", "run_scenario"): "experiments.run_scenario",
    ("experiments", "derived_rng"): "experiments.derived_rng",
    ("experiments", "sample_clusters"): "environment.sample_clusters",
    ("experiments", "rebind_receiver"): "environment.rebind_receiver",
    ("experiments", "tx_ris_channel"): "channel.tx_ris_channel",
    ("experiments", "ris_rx_channel"): "channel.ris_rx_channel",
    ("experiments", "direct_channel"): "channel.direct_channel",
    ("experiments", "optimal_phases"): "riscontrol.optimal_phases",
    ("experiments", "combined_phase_vector"): "riscontrol.combined_phase_vector",
    ("experiments", "effective_channel"): "metrics.effective_channel",
    ("experiments", "summarize"): "metrics.summarize",
    ("experiments", "bootstrap_mean_ci"): "metrics.bootstrap_mean_ci",
    ("channel", "angles_to_targets"): "geometry.angles_to_targets",
    ("channel", "pathloss_db"): "propagation.pathloss_db",
    ("channel", "element_gain"): "propagation.element_gain",
    ("channel", "sample_shadow"): "propagation.sample_shadow",
    ("channel", "los_indicator"): "propagation.los_indicator",
    ("figures", "write_sweep_csv"): "figures.write_sweep_csv",
    ("figures", "write_sweep_json"): "figures.write_sweep_json",
    ("figures", "write_cdf_csv"): "figures.write_cdf_csv",
    ("figures", "write_metadata"): "figures.write_metadata",
    ("cli", "main"): "cli.main",
}
PROPAGATION = ("propagation.pathloss_db", "propagation.element_gain",
               "propagation.sample_shadow", "propagation.los_indicator")
WRITERS = ("figures.write_sweep_csv", "figures.write_sweep_json",
           "figures.write_cdf_csv", "figures.write_metadata")


def _element_paths(bound: inspect.BoundArguments, result) -> int:
    """(S + 1) * N: every scatterer plus the sightline, over every element."""
    return (len(bound.arguments["clusters"]) + 1) * bound.arguments["ris"].n_elements


# span name -> work count taken from the call's arguments and result
WORK = {
    "environment.sample_clusters": lambda bound, result: len(result),
    "channel.tx_ris_channel": _element_paths,
    **{name: lambda bound, result: os.path.getsize(result) for name in WRITERS},
}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    work: int


class Tracer:
    """Wraps the PATCHES names while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = work(sig.bind(*args, **kwargs), result) if work else 0
            spans.append(Span(span_id, parent, name, start, end, count))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for (module, attr), name in PATCHES.items():
            mod = importlib.import_module(f"risim.{module}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_ns(self) -> dict[int, int]:
        """Span id -> its duration minus the durations of its child spans."""
        child = Counter()
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end_ns - s.start_ns
        return {s.id: s.end_ns - s.start_ns - child[s.id] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times over every span the tracer recorded.

    Counts are whole numbers; ``*.self_s`` and ``io.write_s`` are seconds."""
    self_ns = tracer.self_ns()
    calls, busy, work = Counter(), Counter(), Counter()
    for s in tracer.spans:
        calls[s.name] += 1
        busy[s.name] += self_ns[s.id]
        work[s.name] += s.work

    def sec(*names: str) -> float:
        return sum(busy[n] for n in names) / 1e9

    tx = "channel.tx_ris_channel"
    out = {}
    for name in ("experiments.derived_rng", "environment.sample_clusters", tx,
                 "geometry.angles_to_targets"):
        out[f"{name}.calls"] = calls[name]
    for name in ("experiments.derived_rng", "experiments.run_scenario",
                 "environment.sample_clusters", "environment.rebind_receiver", tx,
                 "channel.ris_rx_channel", "channel.direct_channel",
                 "geometry.angles_to_targets", "riscontrol.optimal_phases",
                 "riscontrol.combined_phase_vector", "metrics.effective_channel",
                 "metrics.summarize", "metrics.bootstrap_mean_ci", "cli.main"):
        out[f"{name}.self_s"] = sec(name)
    out["environment.scatterers"] = work["environment.sample_clusters"]
    out[f"{tx}.element_paths"] = work[tx]
    out[f"{tx}.ns_per_element_path"] = busy[tx] / work[tx] if work[tx] else 0.0
    out["propagation.calls"] = sum(calls[n] for n in PROPAGATION)
    out["propagation.self_s"] = sec(*PROPAGATION)
    out["io.bytes_written"] = sum(work[n] for n in WRITERS)
    out["io.write_s"] = sec(*WRITERS)
    return out
