"""Invariants of the traced benchmark run.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import risim.experiments  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRIALS = 12


def _traced(cls, tmp_path, threads=None):
    """Trace one iteration of a small copy of a workload."""
    wl = type(cls.__name__, (cls,), {"trials": TRIALS})(7, tmp_path)
    if threads is not None:
        wl.threads = threads
    with tracing.Tracer() as tracer:
        rates = wl.outputs(0, wl.call(wl.inputs(0)))
    assert len(rates) == cls.points
    return tracer


def _subtree_self_sums(tracer):
    """Root span id -> sum of self times over the spans under it."""
    parent = {s.id: s.parent for s in tracer.spans}
    sums = {}
    for span_id, self_ns in tracer.self_ns().items():
        while parent[span_id] is not None:
            span_id = parent[span_id]
        sums[span_id] = sums.get(span_id, 0) + self_ns
    return sums


def test_self_times_sum_to_root_span(tmp_path):
    for cls in (workloads.Single256, workloads.FreePowerSweep):
        tracer = _traced(cls, tmp_path)
        roots = {s.id: s.end_ns - s.start_ns for s in tracer.spans if s.parent is None}
        assert len(roots) == 1
        assert _subtree_self_sums(tracer) == roots
        assert all(v >= 0 for v in tracer.self_ns().values())


def test_single_256_counts_repeat_exactly(tmp_path):
    first = tracing.layer_metrics(_traced(workloads.Single256, tmp_path))
    second = tracing.layer_metrics(_traced(workloads.Single256, tmp_path))
    counts = {k: v for k, v in first.items() if not k.endswith("_s")
              and k != "channel.tx_ris_channel.ns_per_element_path"}
    assert counts == {k: second[k] for k in counts}
    assert first["experiments.derived_rng.calls"] == 4 * TRIALS + 1
    assert first["environment.sample_clusters.calls"] == TRIALS
    assert first["channel.tx_ris_channel.calls"] == TRIALS
    assert first["channel.tx_ris_channel.element_paths"] == \
        (first["environment.scatterers"] + TRIALS) * 256
    assert first["riscontrol.combined_phase_vector.self_s"] == 0


def test_free_power_sweep_runs_no_surface_layer(tmp_path):
    m = tracing.layer_metrics(_traced(workloads.FreePowerSweep, tmp_path))
    points = workloads.FreePowerSweep.points
    assert m["experiments.derived_rng.calls"] == points * (2 * TRIALS + 1)
    assert m["channel.tx_ris_channel.calls"] == 0
    assert m["channel.tx_ris_channel.element_paths"] == 0
    assert m["riscontrol.combined_phase_vector.self_s"] == 0
    assert m["io.bytes_written"] == 0


def test_f9_pool_threads_are_traced_and_patches_removed(tmp_path):
    """More pool threads than cores and a short switch interval: a span
    lost between threads would break the exact call count."""
    original = risim.experiments.derived_rng
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [tracing.layer_metrics(
            _traced(workloads.F9Shared, tmp_path, threads=4)) for _ in range(2)]
    finally:
        sys.setswitchinterval(interval)
    assert risim.experiments.derived_rng is original
    m = runs[0]
    points = workloads.F9Shared.points
    # per trial: clusters, tx->surface, and surface->rx plus direct per user
    assert m["experiments.derived_rng.calls"] == points * (6 * TRIALS + 2)
    assert m["riscontrol.combined_phase_vector.self_s"] > 0
    assert m["io.bytes_written"] > 0
    for key in ("environment.scatterers", "propagation.calls", "io.bytes_written"):
        assert runs[1][key] == m[key]
