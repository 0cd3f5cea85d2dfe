"""Desk-scale experiments on integer/continuum set correspondences:
sparse spectra, nested-interval measures, equidistribution order,
arithmetic-progression preservation, and random limsup fractals.

``import salemkit`` loads no layer module.  Each name in ``__all__`` is
looked up in its layer module on first use (PEP 562), so a caller pays
only for the layers it touches: ``salemkit.dft_char`` loads ``core_sets``
alone, and the integer side never loads ``randfrac``.  The package keeps
no copy of a re-exported name, so ``salemkit.X`` is always the layer
module's current attribute.  The command line, ``salemkit.cli``, imports
every layer when it is imported.
"""

import importlib

# Layer module -> the names the package re-exports from it.
_EXPORTS = {
    "aps": (
        "APWitness", "GridAP", "HypothesisReport", "SeparationError", "check_thm32_hypotheses",
        "dyadic_embed", "find_ap_integers", "find_ap_points", "grid_ap_descent",
    ),
    "cantor": (
        "CantorStage", "Level", "LevelPlan", "box_dimension", "build_stage", "default_eta",
        "make_plan", "ternary_plan",
    ),
    "core_sets": (
        "DensityEstimate", "IntegerSet", "SpectrumSample", "ZERO_FLOOR", "decay_exponent_fit",
        "dft_char", "fractional_density", "geometric_grid", "weyl_sum",
    ),
    "equidist": (
        "CharacterizationReport", "NApproximation", "OrderEstimate", "characterize_salem",
        "equidist_order", "integers_from_approximations", "n_approximation",
    ),
    "measures": ("DecayReport", "THETA", "decay_check", "mu_hat"),
    "randfrac": (
        "DimensionStats", "LemmaCheckReport", "OrderStats", "RandomFractalConfig",
        "dimension_experiment", "lemma63_experiment", "mu1_hat", "order_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
