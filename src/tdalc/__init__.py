"""Transdermal-alcohol population modeling and BrAC deconvolution.

The package fits a diffusion model with a randomly distributed parameter
pair (diffusivity, input gain) to paired breath and transdermal alcohol
records, then inverts new transdermal records into breath-alcohol estimates
with credible bands and clinical summary statistics.
"""

from .data_io import Episode, build_episode, parse_episode, write_episode
from .deconvolution import (DeconvolutionResult, RegularizationSearch,
                            build_problem, deconvolve,
                            deconvolve_deterministic, default_basis_count,
                            nnls, select_regularization, write_result_csv)
from .density import (PopulationParams, cell_masses, credible_region_radius,
                      load_params, moment_weights, pdf, sample, save_params)
from .errors import (ConfigurationError, NumericalError, ParameterError,
                     ParseError, SamplingError)
from .forward_model import (DiscreteTimeOps, assemble, convolve,
                            deterministic_ops, discrete_time, impulse_kernels,
                            simulate, simulate_deterministic)
from .grid_basis import DiscretizationGrid, ParamMesh, SpatialMesh, TimeMesh
from .population_fit import (FitResult, cost, cost_and_gradient,
                             fit_episode_deterministic, fit_population,
                             initial_guess)
from .synth import SynthConfig, generate
from .uncertainty import (CredibleBand, EpisodeStats, StatsIntervals,
                          credible_band, credible_band_scalar, episode_stats,
                          stats_credible_intervals, write_stats_report)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
