"""Secure UAV directional-modulation link: leakage beamforming, artificial
noise, closed-form Max-SR power allocation, and the alternating loop that
couples them along a sampled flight trajectory."""

from .geometry import (
    ArrayConfig,
    ConfigurationError,
    LinkState,
    ScenarioGeometry,
    Trajectory,
    array_separation,
    link_state_at,
    path_loss,
    sample_trajectory,
)
from .beamforming import leakage_pair
from .rates import ProjectedPowers, secrecy_sum_rate
from .power_allocation import PaSolution, beta_grid_oracle, optimal_beta
from .ais import AisConfig, AisTrace, optimize_point
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultBlock,
    Strategy,
    SweepResult,
    parse_config,
    parse_config_text,
    run_experiment,
    serialize_config,
    summarize,
    write_results,
)

__version__ = "0.1.0"
