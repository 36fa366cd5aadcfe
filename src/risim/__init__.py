"""Geometry-driven Monte Carlo simulator for passive reflecting surfaces
assisting mmWave links: clustered scatter channels, co-phased surface
control, and seeded ergodic-rate / SNR experiments."""

from .channel import (
    RisDescriptor, array_response, array_response_tilted, direct_channel,
    ris_rx_channel, tx_ris_channel,
)
from .environment import (
    ClusterSet, EnvironmentConfig, complex_normal, rebind_receiver,
    resample_gains, sample_clusters,
)
from .experiments import (
    ConfigError, ScenarioConfig, SweepSpec, SweepVariable, derived_rng,
    load_scenario, run_scenario, run_sweep, scenario_from_dict,
    scenario_to_dict, validate,
)
from .figures import build_figure, reproduce_figure
from .geometry import (
    Angles, DegenerateGeometryError, Orientation, Plane, Point3, TiltAxis,
    angles_at_surface, distance, rotate_element, rotation_matrix, wrap_angle,
)
from .metrics import (
    LinkBudget, MetricsResult, bootstrap_mean_ci, dbm_to_watts, effective_channel,
    empirical_cdf, ergodic_rate, rate_samples, snr, summarize, watts_to_dbm,
)
from .propagation import (
    LOS_73GHZ, NLOS_73GHZ, SPEED_OF_LIGHT, LosMode, LosModel, PathlossParams,
    element_gain, los_indicator, los_probability, pathloss_db, sample_shadow,
    wavelength, wavenumber,
)
from .riscontrol import (
    PhaseConfig, cascade, combined_phase_vector, optimal_phases, partition_elements,
)

__version__ = "0.1.0"
