"""Secure UAV directional-modulation link: leakage beamforming, artificial
noise, closed-form Max-SR power allocation, and the alternating loop that
couples them along a sampled flight trajectory."""

from .geometry import (
    ArrayConfig,
    ConfigurationError,
    LinkState,
    ScenarioGeometry,
    TrajectoryPoint,
    link_state_at,
    path_loss,
    sample_trajectory,
    steering_vector,
)
from .beamforming import (
    BeamformingPair,
    anlnr_beamformer,
    anlnr_value,
    leakage_pair,
    slnr_beamformer,
    slnr_value,
)
from .rates import (
    ProjectedPowers,
    RateBreakdown,
    projected_powers,
    rate_bob,
    rate_eve,
    secrecy_rate,
    secrecy_sum_rate,
)
from .power_allocation import PaSolution, beta_grid_oracle, optimal_beta
from .ais import AisConfig, AisTrace, optimize_point, run_baseline
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    Strategy,
    parse_config,
    parse_config_text,
    run_experiment,
    serialize_config,
    summarize,
    write_results,
)

__all__ = [
    "ArrayConfig",
    "ConfigurationError",
    "LinkState",
    "ScenarioGeometry",
    "TrajectoryPoint",
    "link_state_at",
    "path_loss",
    "sample_trajectory",
    "steering_vector",
    "BeamformingPair",
    "anlnr_beamformer",
    "anlnr_value",
    "leakage_pair",
    "slnr_beamformer",
    "slnr_value",
    "ProjectedPowers",
    "RateBreakdown",
    "projected_powers",
    "rate_bob",
    "rate_eve",
    "secrecy_rate",
    "secrecy_sum_rate",
    "PaSolution",
    "beta_grid_oracle",
    "optimal_beta",
    "AisConfig",
    "AisTrace",
    "optimize_point",
    "run_baseline",
    "ConfigError",
    "ExperimentConfig",
    "ResultRecord",
    "Strategy",
    "parse_config",
    "parse_config_text",
    "run_experiment",
    "serialize_config",
    "summarize",
    "write_results",
]

__version__ = "0.1.0"
