"""Geometry-driven Monte Carlo simulator for passive reflecting surfaces
assisting mmWave links: clustered scatter channels, co-phased surface
control, and seeded ergodic-rate / SNR experiments."""

from .channel import (
    RisDescriptor, direct_channel, ris_rx_channel, tx_ris_channel,
)
from .environment import (
    ClusterDraws, EnvironmentConfig, complex_normal, place_clusters,
    rebind_receiver, sample_clusters,
)
from .experiments import (
    ConfigError, ScenarioConfig, SweepSpec, SweepVariable, derived_rng,
    load_scenario, run_scenario, run_sweep, scenario_from_dict,
    scenario_to_dict, stream_states, validate,
)
from .figures import build_figure, reproduce_figure
from .geometry import (
    DegenerateGeometryError, Orientation, Plane, Point3, TiltAxis,
    distance, rotation_matrix, wrap_angle,
)
from .metrics import (
    LinkBudget, MetricsResult, bootstrap_mean_ci, effective_channel,
    empirical_cdf, snr, summarize,
)
from .propagation import (
    LOS_73GHZ, NLOS_73GHZ, SPEED_OF_LIGHT, LosMode, LosModel, PathlossParams,
    element_gain, los_indicator, los_probability, pathloss_db, sample_shadow,
    wavelength, wavenumber,
)
from .riscontrol import combined_phase_vector, optimal_phases, partition_elements

__version__ = "0.1.0"
