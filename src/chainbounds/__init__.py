"""Finite-sample Chernoff and Hoeffding tail bounds for additive
functionals of finite-state Markov chains.

The pipeline: load a model (P, f, q), check the positivity-pattern
assumptions, build the exponential family of tilted chains and its large
deviations rate function, compute the prefactor constants, and evaluate
or simulate the resulting tail bounds.
"""

from .assumptions import AssumptionReport, Violation, validate
from .bounds import (BoundConstants, BoundReport, GridSummary, chernoff_bound,
                     constants, ergodic_gap, two_sided_bound)
from .errors import (AssumptionError, ChainboundsError, ConvergenceError,
                     CrossCheckError, DomainError, ModelFormatError)
from .family import (MeanSet, RatePoint, SpectralCurve, TiltedFamily,
                     TiltedPoint, family_of, kl_rate, mean_set,
                     rate_function, spectral_curve, theta_of_mean, tilt)
from .model import (LevelSets, MarkovModel, is_irreducible, level_sets,
                    load_model, parse_model)
from .perron import PerronTriple, limit_matrix, pf_irreducible
from .sim import (ErgodicCheck, TailEstimate, empirical_tail, ergodic_check,
                  lambda_n_exact, sample_trajectory)

__version__ = "0.1.0"

__all__ = [
    "MarkovModel", "LevelSets", "load_model", "parse_model",
    "is_irreducible", "level_sets",
    "PerronTriple", "pf_irreducible", "limit_matrix",
    "AssumptionReport", "Violation", "validate",
    "TiltedPoint", "TiltedFamily", "SpectralCurve", "MeanSet", "RatePoint",
    "family_of", "tilt", "theta_of_mean", "kl_rate", "rate_function",
    "mean_set", "spectral_curve",
    "GridSummary", "BoundConstants", "BoundReport", "constants",
    "chernoff_bound", "two_sided_bound", "ergodic_gap",
    "TailEstimate", "ErgodicCheck", "sample_trajectory", "empirical_tail",
    "lambda_n_exact", "ergodic_check",
    "ChainboundsError", "ModelFormatError", "AssumptionError", "DomainError",
    "ConvergenceError", "CrossCheckError",
    "__version__",
]
