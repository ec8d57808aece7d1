"""Stochastic SEI_sI_aR-B herd model with an environmental reservoir.

Hosts move through susceptible, exposed, symptomatic, asymptomatic and
removed classes while shedding virus into a reservoir compartment that
feeds back into the force of infection. The package provides the
deterministic and Euler-Maruyama integrators, reproduction-number and
equilibrium computations, seeded ensembles, LHS/PRCC sensitivity
analysis, and a CLI over all of it.
"""

from .config import ConfigError, RunConfig, load_config, parse_config, parse_ranges
from .ensemble import (
    EnsembleSummary,
    extinction_fraction,
    iter_summary_blocks,
    run_ensemble,
)
from .equilibrium import (
    EndemicEquilibrium,
    admissible_upper,
    endemic_gap,
    intermediates,
    pressure_from_e,
    solve_endemic,
)
from .integrate import (
    IntegrationError,
    NoiseStream,
    SimConfig,
    Trajectory,
    integrate_ode,
    integrate_sde,
    iter_path_blocks,
    iter_path_states,
    wiener_increments,
)
from .model import (
    BASELINE_PARAMS,
    COMPARTMENTS,
    DEFAULT_NOISE,
    HerdState,
    ModelParams,
    NoiseIntensities,
    default_init,
    disease_free_equilibrium,
    drift,
    force_of_infection,
    r0_closed_form,
    r0_herd,
    r0_spectral,
    total_population,
)
from .output import (
    ENSEMBLE_HEADER,
    SENSITIVITY_HEADER,
    TRAJECTORY_HEADER,
    read_ensemble_csv,
    read_sensitivity_csv,
    read_trajectory_csv,
    write_ensemble_csv,
    write_prcc_svg,
    write_sensitivity_csv,
    write_trajectory_csv,
    write_trajectory_svg,
)
from .sensitivity import (
    ParamRanges,
    ParamSensitivity,
    SensitivityReport,
    default_ranges,
    lhs_sample,
    prcc,
    sensitivity_of_peak_symptomatic,
    sensitivity_of_r0,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_PARAMS",
    "COMPARTMENTS",
    "ConfigError",
    "DEFAULT_NOISE",
    "ENSEMBLE_HEADER",
    "EndemicEquilibrium",
    "EnsembleSummary",
    "HerdState",
    "IntegrationError",
    "ModelParams",
    "NoiseIntensities",
    "NoiseStream",
    "ParamRanges",
    "ParamSensitivity",
    "RunConfig",
    "SENSITIVITY_HEADER",
    "SensitivityReport",
    "SimConfig",
    "TRAJECTORY_HEADER",
    "Trajectory",
    "admissible_upper",
    "default_init",
    "default_ranges",
    "disease_free_equilibrium",
    "drift",
    "endemic_gap",
    "extinction_fraction",
    "force_of_infection",
    "integrate_ode",
    "integrate_sde",
    "intermediates",
    "iter_path_blocks",
    "iter_path_states",
    "iter_summary_blocks",
    "lhs_sample",
    "load_config",
    "parse_config",
    "parse_ranges",
    "prcc",
    "pressure_from_e",
    "r0_closed_form",
    "r0_herd",
    "r0_spectral",
    "read_ensemble_csv",
    "read_sensitivity_csv",
    "read_trajectory_csv",
    "run_ensemble",
    "sensitivity_of_peak_symptomatic",
    "sensitivity_of_r0",
    "solve_endemic",
    "total_population",
    "wiener_increments",
    "write_ensemble_csv",
    "write_prcc_svg",
    "write_sensitivity_csv",
    "write_trajectory_csv",
    "write_trajectory_svg",
]
