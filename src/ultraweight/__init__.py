"""Computational calculus of weight sequences and weight functions.

The package decides growth and regularity conditions for weight sequences
and weight functions, estimates (mixed) growth indices, and runs the derived
constructions: sup-transform associated functions, conjugate-derived
sequence matrices, kernel averages, descendant sequences, and glued
dominating pairs.  Every asymptotic decision is returned as a
``ConditionVerdict`` carrying a witness, a counterexample, or the trend data
that prevented a call.
"""

from .verdict import (ConditionVerdict, ConvexityViolation,
                      DivergentAssociated, EvaluationRangeError,
                      GammaNotAboveOne, Grid, GridTooCoarse,
                      InternalInconsistency, InvalidArgument, InvalidSpec,
                      NotLogConvex, NotNonQuasianalytic, PreconditionError,
                      PreconditionInconclusive, RunConfig, UltraweightError,
                      Verdict)
from .sequences import (TailModel, WeightSequence, check_sequence_condition,
                        compare, explicit, factorial_shift, from_quotients,
                        gevrey, hat, power, qgevrey)
from .functions import (AssociatedOf, ConvexPL, KappaPower, LogPower,
                        NormalizedShift, PiecewiseGlue, PowerLaw, PowerSubst,
                        WeightFunction, check_omega_condition, compare_fun,
                        normalize, power_substitute, young_conjugate)
from .indices import (Gamma1Witness, IndexEstimate, find_gamma1_witness,
                      gamma_index_fun, gamma_index_seq, mixed_condition_fun,
                      mixed_condition_seq, mu_fun, mu_seq)
from .constructions import (DescendantPair, ReductionResult, WeightMatrix,
                            associated_eval, associated_function,
                            associated_matrix, descendant, kappa,
                            kappa_power_normalized, omega_hat, reduction_build)
from .specio import make_function, make_sequence, spec_of

__version__ = "0.1.0"

__all__ = [
    "AssociatedOf", "ConditionVerdict", "ConvexPL",
    "ConvexityViolation", "DescendantPair", "DivergentAssociated",
    "EvaluationRangeError", "Gamma1Witness", "GammaNotAboveOne", "Grid",
    "GridTooCoarse", "IndexEstimate", "InternalInconsistency",
    "InvalidArgument", "InvalidSpec", "KappaPower", "LogPower",
    "NormalizedShift", "NotLogConvex", "NotNonQuasianalytic", "PiecewiseGlue",
    "PowerLaw", "PowerSubst", "PreconditionError", "PreconditionInconclusive",
    "ReductionResult", "RunConfig", "TailModel", "UltraweightError",
    "Verdict", "WeightFunction", "WeightMatrix", "WeightSequence",
    "associated_eval", "associated_function", "associated_matrix",
    "check_omega_condition", "check_sequence_condition", "compare",
    "compare_fun", "descendant", "explicit", "factorial_shift",
    "find_gamma1_witness", "from_quotients", "gamma_index_fun",
    "gamma_index_seq", "gevrey", "hat",
    "kappa", "kappa_power_normalized", "make_function", "make_sequence",
    "mixed_condition_fun", "mixed_condition_seq", "mu_fun", "mu_seq",
    "normalize", "omega_hat", "power", "power_substitute", "qgevrey",
    "reduction_build", "spec_of", "young_conjugate",
]
