"""perfbench's tracer wraps risim functions by name, from outside the
package, where their callers look them up.  A rename or deletion of one of
them would break a traced benchmark run; it fails here instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from risim.channel import RisDescriptor, tx_ris_channel
from risim.environment import EnvironmentConfig, sample_clusters
from risim.geometry import Point3

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded by path without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, attr in _tracing().PATCHES:
        found = getattr(importlib.import_module(f"risim.{module}"), attr, None)
        assert callable(found), f"risim.{module}.{attr}"


def test_tx_ris_channel_binds_what_the_tracer_counts():
    # run_scenario's call: ris and clusters positional, clusters the trial's draws
    ris = RisDescriptor(position=Point3(75.0, 30.0, 2.0), n_elements=16)
    draws = sample_clusters(EnvironmentConfig(), np.random.default_rng(1))
    bound = inspect.signature(tx_ris_channel).bind(ris, draws, *[None] * 6)
    assert bound.arguments["ris"] is ris and bound.arguments["clusters"] is draws
    scatterers = int(draws.sizes.sum())
    assert scatterers > 0
    assert _tracing()._element_paths(bound, None) == (scatterers + 1) * 16
