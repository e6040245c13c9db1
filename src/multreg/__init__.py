"""Spectral regularization of noisy multiplication-operator equations.

Solve g_delta(s) = b(s) f(s) + delta * xi(s) by nodewise filtering
f_est = phi(alpha, b) * g_delta, with the calculus that controls it:
distribution functions and rearrangements of the multiplier, scheme
axioms and qualification, effective ill-posedness under white noise,
and a-priori parameter choice rules, plus an experiment harness that
verifies the error bounds empirically.
"""

from .analysis import (DETERMINISTIC, WHITE, ErrorBudget, IllposednessProfile,
                       McResult, MultiplicationProblem, RateRow,
                       RateStudyResult, VarianceValue, bias,
                       choose_alpha_deterministic, choose_alpha_white,
                       deterministic_bound_at_star, deterministic_error_bound,
                       effective_illposedness, evaluate_delta,
                       evaluate_deterministic, fit_loglog_slope,
                       monte_carlo_rms, rate_study, reconstruct,
                       variance_integral, white_bound_at_star,
                       white_error_bound)
from .config import ExperimentConfig, build_problem, load_config, parse_config
from .errors import (AxiomViolation, BracketingFailed, ConfigError,
                     CrossCheckFailed, Divergent,
                     DivergentProfile, DominationNotDetected,
                     EigenvaluesNotDivergent, FilterOverflow, MultRegError,
                     NotInSourceSet, PreconditionFailed,
                     RearrangementUndefined, RequiresFiniteMeasure,
                     UnboundedRatio, ZeroDirection)
from .gallery import (DeconvolutionProblem, FinalValueProblem, compact_case,
                      counting_problem, fvp_multiplier, lavrentiev_deconvolve,
                      periodic_convolve, to_frequency, from_frequency)
from .indexfuncs import (IndexFunction, LogPowerIndex, PowerIndex, TableIndex,
                         index_function_from_spec, validate_index_function)
from .multipliers import (BackgroundPart, CallableMultiplier,
                          ExponentialSequence, GaussianFrequency,
                          MonotonePiece, Multiplier, PiecewiseMonotone,
                          PlateauCounterexample, PowerDecay, PurePower,
                          Tabulated)
from .noise import (DeterministicNoise, NoiseStreams, WhiteNoiseSampler,
                    concentrated_direction, concentrated_noise, sample_white,
                    worst_case_deterministic)
from .rearrangement import (PiecewiseBounds, Rearrangement,
                            decreasing_rearrangement, distribution_function,
                            increasing_rearrangement,
                            piecewise_rearrangement_bounds,
                            truncated_shift_check, vanishes_at_infinity)
from .runner import ExperimentReport, run, write_report
from .schemes import (QualificationCertificate, Scheme, certify_axioms,
                      certify_qualification, lavrentiev, scheme_by_name,
                      spectral_cutoff, tikhonov_wiener, truncate)
from .smoothness import (SourceCondition, make_source, phi_star,
                         sobolev_equivalence_check, sobolev_norm,
                         source_function)
from .spaces import MeasureSpace

__version__ = "0.1.0"
