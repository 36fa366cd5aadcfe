"""Geometry-driven Monte Carlo simulator for passive reflecting surfaces
assisting mmWave links: clustered scatter channels, co-phased surface
control, and seeded ergodic-rate / SNR experiments.

The package exports what a config author needs; the links, samplers and
summaries are importable from their modules."""

from .channel import RisDescriptor
from .environment import EnvironmentConfig
from .experiments import (
    ConfigError, ScenarioConfig, SweepSpec, SweepVariable, load_scenario,
    run_scenario, run_sweep, scenario_from_dict, scenario_to_dict, validate,
)
from .figures import build_figure, reproduce_figure
from .geometry import DegenerateGeometryError, Orientation, Plane, Point3, TiltAxis
from .metrics import LinkBudget, MetricsResult
from .propagation import LosMode, LosModel, PathlossParams

__version__ = "0.1.0"
