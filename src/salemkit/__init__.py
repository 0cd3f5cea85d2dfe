"""Desk-scale experiments on integer/continuum set correspondences:
sparse spectra, nested-interval measures, equidistribution order,
arithmetic-progression preservation, and random limsup fractals."""

from .aps import (
    APWitness,
    GridAP,
    HypothesisReport,
    SeparationError,
    check_thm32_hypotheses,
    dyadic_embed,
    find_ap_integers,
    find_ap_points,
    grid_ap_descent,
)
from .cantor import (
    CantorStage,
    Level,
    LevelPlan,
    box_dimension,
    build_stage,
    default_eta,
    make_plan,
    ternary_plan,
)
from .core_sets import (
    DensityEstimate,
    IntegerSet,
    SpectrumSample,
    ZERO_FLOOR,
    decay_exponent_fit,
    dft_char,
    fractional_density,
    geometric_grid,
    weyl_sum,
)
from .equidist import (
    CharacterizationReport,
    NApproximation,
    OrderEstimate,
    characterize_salem,
    equidist_order,
    integers_from_approximations,
    n_approximation,
)
from .measures import (
    DecayReport,
    THETA,
    decay_check,
    mu_hat,
    q_factor,
    truncation_for,
)
from .randfrac import (
    DimensionStats,
    LemmaCheckReport,
    OrderStats,
    RandomFractalConfig,
    TrialResult,
    corollary64_check,
    dimension_experiment,
    generate_trial,
    lemma63_experiment,
    mu1_hat,
    order_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
