"""Stagewise measures on nested interval systems and their spectra.

The stage-k distribution function F_k climbs by 1/(d_1*...*d_k) across
each stage interval and is flat on the gaps.  Its transform factors into
per-level exponential sums

    Q_k(u) = (1/d_k) * sum_{a in A_k} e^{-2 pi i u a / M_k},

and the transform of the limit measure is the product
Q_1(u) * prod_k Q_{k+1}(eta_1...eta_k * u).  Factors whose phases have
shrunk below the threshold THETA differ from 1 by O(THETA) and are
dropped, so evaluation cost is logarithmic in |u|.  The measure is fixed
by its plan alone: truncating the product at depth d is the measure of the
plan's first d levels.  Every phase is reduced mod 1 exactly in rationals;
a float frequency is the binary rational it holds.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cantor import LevelPlan
from .core_sets import SpectrumSample, decay_exponent_fit

# Largest |u| at which the transform is evaluated.  Rejecting larger |u|
# also keeps infinities out of Fraction(u), which raises OverflowError.
U_MAX = 1e6
# Phase threshold of the truncation rule: factor k+1 is the last one
# evaluated once eta_1...eta_k * |u| / M_{k+1} drops below it.
THETA = 1e-3


@dataclass(frozen=True)
class DecayReport:
    alpha_hat: float
    beta_target: float
    passed: bool
    truncation_depth_used: int
    capped: bool
    envelope: tuple[tuple[float, float], ...]
    # mu_hat at every grid frequency, for spectrum files; not in as_dict.
    spectrum: tuple[SpectrumSample, ...]

    def as_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "beta_target": self.beta_target,
            "pass": self.passed,
            "truncation_depth_used": self.truncation_depth_used,
            "capped": self.capped,
            "envelope": [[m, mag] for m, mag in self.envelope],
        }


def q_factor(plan: LevelPlan, k: int, u) -> complex:
    """(1/d_k) * sum_{a in A_k} e^{-2 pi i u a / M_k}; modulus at most 1.

    Each phase u*a/M_k is reduced mod 1 exactly, with u read as the
    rational ``Fraction(u)``.
    """
    if not 1 <= k <= plan.depth:
        raise ValueError(f"level {k} outside the plan")
    q = Fraction(u)
    return _level_sum(plan.levels[k - 1].digits, q.numerator, q.denominator * plan.M(k))


def _level_sum(digits: Sequence[int], p: int, D: int) -> complex:
    """(1/d) * sum_a e^{-2 pi i p a / D} over the d digits, each phase read
    as the integer residue p*a mod D over D (one correctly rounded float)."""
    # Not routed through core_sets.exp_sum: at exact zeros of the transform
    # the reports print this sum's rounding noise, which the kernel's
    # angles and pairwise summation round differently.
    total = 0j
    for a in digits:
        total += cmath.exp(-2j * math.pi * (p * a % D / D))
    return total / len(digits)


def truncation_for(plan: LevelPlan, u) -> tuple[int, bool]:
    """Number of product factors to evaluate at u, and whether the plan's
    depth cut the tail while the next factor was still active."""
    au = abs(float(u))
    for p in range(plan.depth):
        if float(plan.eta_product(p)) * au / plan.M(p + 1) < THETA:
            return p + 1, False
    return plan.depth, True


def mu_hat(plan: LevelPlan, u, *, depth: int | None = None) -> complex:
    """Transform of the plan's stagewise measure at u via the factor product.

    With ``depth=None`` the factor count follows the truncation rule (and is
    silently capped at the plan depth; use :func:`truncation_for` to
    observe the cap).  An explicit ``depth`` forces exactly that many
    factors, i.e. the transform of the depth-``depth`` endpoint comb.
    """
    if abs(float(u)) > U_MAX:
        raise ValueError(f"|u| exceeds the largest supported frequency {U_MAX:g}")
    if depth is None:
        factors, _ = truncation_for(plan, u)
    else:
        if not 1 <= depth <= plan.depth:
            raise ValueError("depth must lie within the plan depth")
        factors = depth
    # Factor k+1 takes eta_1...eta_k * u / M_{k+1} as an unreduced integer
    # pair: its residues over D are the same rationals, so the same floats.
    # reduce, not math.prod, whose start 1 could flip the sign of a zero.
    q = Fraction(u)
    return functools.reduce(operator.mul, (
        _level_sum(
            plan.levels[k].digits,
            q.numerator * plan.eta_product(k).numerator,
            q.denominator * plan.eta_product(k).denominator * plan.M(k + 1),
        )
        for k in range(factors)
    ))


def dyadic_block_envelope(samples: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Per dyadic block [2^t, 2^{t+1}), the sample of largest magnitude.

    Collapsing to block maxima before exponent fitting keeps the
    oscillatory zeros of the transform from corrupting the envelope.
    """
    blocks: dict[int, tuple[float, float]] = {}
    for u, mag in samples:
        t = int(math.floor(math.log2(u)))
        if t not in blocks or mag > blocks[t][1]:
            blocks[t] = (u, mag)
    return [blocks[t] for t in sorted(blocks)]


def decay_check(
    plan: LevelPlan,
    u_grid: Sequence[float],
    beta: float,
    tolerance: float = 0.1,
) -> DecayReport:
    """Sample mu_hat on the sorted grid, fit the dyadic-block envelope of
    its modulus, and judge the fitted exponent against beta - tolerance.
    Each grid frequency is sampled as given (a ``Fraction`` exactly); the
    report lists it as an int or a float.  The complex samples are kept on
    the report's ``spectrum``."""
    grid = sorted(u_grid)
    if not grid:
        raise ValueError("empty u grid")
    if grid[0] < 2:
        raise ValueError("grid frequencies must be at least 2")
    if grid[-1] > U_MAX:
        raise ValueError(f"grid exceeds the largest supported frequency {U_MAX:g}")
    samples = []
    spectrum = []
    depth_used = 0
    capped = False
    for u in grid:
        factors, hit = truncation_for(plan, u)
        depth_used = max(depth_used, factors)
        capped = capped or hit
        value = mu_hat(plan, u, depth=factors)
        samples.append((u if isinstance(u, int) else float(u), abs(value)))
        spectrum.append(SpectrumSample(float(u), value))
    envelope = dyadic_block_envelope(samples)
    alpha_hat = decay_exponent_fit(envelope)
    return DecayReport(
        alpha_hat=alpha_hat,
        beta_target=float(beta),
        passed=alpha_hat >= beta - tolerance,
        truncation_depth_used=depth_used,
        capped=capped,
        envelope=tuple(envelope),
        spectrum=tuple(spectrum),
    )
