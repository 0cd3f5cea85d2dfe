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

:func:`mu_hat` is the one public transform, and it takes a whole grid.
The grid is evaluated level by level in order of the frequencies' factor
counts: the frequencies that still need factor k form a suffix, and factor
k is summed over that suffix in numpy, digit by digit, and multiplied into
the running product.  The frequencies are read once per grid, as arrays of
the numerators n and denominators s of the rationals they hold (an integer
is n/1 and takes no Fraction), and factor k takes the integer pairs
n * p_k and s * D_k of its scale p_k / D_k = eta_1...eta_k / M_{k+1}:
int64 arrays while every phase fits, object arrays of Python ints through
the same numpy code otherwise.  Every rounding step is the one the scalar
product takes, so each value has the same bits as the scalar product at
that frequency.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cantor import LevelPlan
from .core_sets import _INT64_MAX, SpectrumSample, decay_exponent_fit

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


def _level_sums(digits: Sequence[int], p: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (1/d) * sum_a e^{-2 pi i p_j a / D_j}
    over the d digits, for each pair (p_j, D_j) of the arrays ``p`` and
    ``D``.

    Each phase is the integer residue p_j*a mod D_j over D_j, one correctly
    rounded float, and the arithmetic is that of the scalar loop
    ``total += cmath.exp(-2j * math.pi * (p * a % D / D))`` followed by
    ``total / d``, so the bits are the same.  The caller passes int64
    arrays only while every p_j*a fits and D_j <= 2**53, where r / D divides
    two exact doubles and rounds as Python's int division, and object
    arrays of Python ints otherwise.
    """
    # Not routed through core_sets.exp_sum: at exact zeros of the transform
    # the reports print this sum's rounding noise, which the kernel's
    # angles and pairwise summation round differently.
    # The digits are added one by one in order, as the loop adds them;
    # .sum() would add pairwise.
    total = np.zeros(len(p), complex)
    for a in digits:
        total += np.exp(-2j * math.pi * np.asarray(p * a % D / D, float))
    # Python's complex / int divides each part by d here, since a sum
    # from 0j holds no -0.0; numpy's complex division rounds otherwise.
    d = len(digits)
    return total.real / d, total.imag / d


def _factor_counts(plan: LevelPlan, us: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Per frequency, the number of product factors the truncation rule
    evaluates, and whether the plan's depth cut the tail while the next
    factor was still active.

    Factor p+1 is the last one once
    ``float(eta_1...eta_p) * |u| / M_{p+1} < THETA``, the scalar float
    operations applied to the array of |u|.
    """
    au = np.array([abs(float(u)) for u in us])
    counts = np.full(len(au), plan.depth)
    active = np.ones(len(au), bool)
    for p in range(plan.depth):
        stop = active & (float(plan.eta_product(p)) * au / float(plan.M(p + 1)) < THETA)
        counts[stop] = p + 1
        active &= ~stop
    return counts, active


def _ratios(us: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Each frequency as the exact rational n/s it holds, in lowest terms
    (an integer, Python or numpy, as n/1 without a Fraction): int64 arrays
    of n and s when every n and s fits, object arrays of Python ints
    otherwise."""
    nums, dens = zip(*(
        (operator.index(u), 1) if isinstance(u, (int, np.integer)) else Fraction(u).as_integer_ratio() for u in us
    ))
    # |n| within int64, so np.abs cannot wrap at -2**63.
    fits = -_INT64_MAX <= min(nums) and max(nums) <= _INT64_MAX and max(dens) <= _INT64_MAX
    dtype = np.int64 if fits else object
    return np.array(nums, dtype), np.array(dens, dtype)


def _transform(plan: LevelPlan, us: Sequence, counts: np.ndarray) -> np.ndarray:
    """The factor product at each u of ``us`` with ``counts[j]`` factors,
    level by level, as a complex array.  The counts must not decrease along
    ``us``, so the frequencies that take factor k+1 are a suffix."""
    nums, dens = _ratios(us)
    # Largest |n| and s over each suffix, for the int64 fit of every level.
    nmax = np.maximum.accumulate(np.abs(nums)[::-1])[::-1]
    smax = np.maximum.accumulate(dens[::-1])[::-1]
    for k in range(int(counts[-1])):
        start = int(np.searchsorted(counts, k, side="right"))
        # Factor k+1 takes eta_1...eta_k * u / M_{k+1} as an unreduced
        # integer pair: its residues over D are the same rationals, so the
        # same floats.
        eta = plan.eta_product(k)
        p_scale, D_scale = eta.numerator, eta.denominator * plan.M(k + 1)
        digits = plan.levels[k].digits
        # _level_sums' fit rule, with |p| bounded by the suffix's largest |n|
        # (at least 1, so that p_scale itself fits) times p_scale.
        fits = (
            nums.dtype == np.int64
            and int(smax[start]) * D_scale <= 2**53
            and max(int(nmax[start]), 1) * p_scale * max(digits[-1], 1) <= _INT64_MAX
        )
        dtype = np.int64 if fits else object
        p = nums[start:].astype(dtype, copy=False) * p_scale
        D = dens[start:].astype(dtype, copy=False) * D_scale
        lre, lim = _level_sums(digits, p, D)
        if k == 0:
            # The running product is the first factor itself, not 1 times it.
            re, im = lre, lim
        else:
            # Python's complex product, in float components: numpy's
            # complex multiply rounds differently.
            ar, ai = re[start:], im[start:]
            re[start:], im[start:] = ar * lre - ai * lim, ar * lim + ai * lre
    out = np.empty(len(re), complex)
    out.real, out.imag = re, im
    return out


def mu_hat(plan: LevelPlan, us: Sequence, *, depth: int | None = None) -> np.ndarray:
    """Transform of the plan's stagewise measure at every frequency in
    ``us``, in any order, via the factor product.

    With ``depth=None`` the factor count follows the truncation rule (and is
    silently capped at the plan depth; :func:`decay_check` reports the cap).
    An explicit ``depth`` forces exactly that many factors, i.e. the
    transform of the depth-``depth`` endpoint comb.  The frequencies are
    evaluated in one pass, in stable order of their factor counts, so each
    value has the bits of the scalar product at its frequency.
    """
    if any(abs(u) > U_MAX for u in us):
        raise ValueError(f"|u| exceeds the largest supported frequency {U_MAX:g}")
    if depth is None:
        counts, _ = _factor_counts(plan, us)
    else:
        if not 1 <= depth <= plan.depth:
            raise ValueError("depth must lie within the plan depth")
        counts = np.full(len(us), depth)
    out = np.zeros(len(us), dtype=complex)
    if len(us):
        order = np.argsort(counts, kind="stable")
        out[order] = _transform(plan, [us[i] for i in order.tolist()], counts[order])
    return out


def dyadic_block_envelope(samples: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Per dyadic block [2^t, 2^{t+1}), the sample of largest magnitude.

    Collapsing to block maxima before exponent fitting keeps the
    oscillatory zeros of the transform from corrupting the envelope.
    """
    blocks: dict[int, tuple[float, float]] = {}
    for u, mag in samples:
        # The block index exactly: math.log2 of a float just below 2^t
        # rounds to t.
        t = u.bit_length() - 1 if isinstance(u, int) else math.frexp(u)[1] - 1
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
    the report's ``spectrum``, one :class:`SpectrumSample` (float(u),
    value) per frequency, built from the ``tolist`` columns; a spectrum
    file takes them unzipped, as ``formats.spectrum_csv``'s frequency and
    value columns.  The moduli are ``np.hypot`` of the parts, the libm
    ``hypot`` that CPython's complex ``abs`` calls, so each is the float
    ``abs(value)`` returns."""
    grid = sorted(u_grid)
    if not grid:
        raise ValueError("empty u grid")
    if grid[0] < 2:
        raise ValueError("grid frequencies must be at least 2")
    if grid[-1] > U_MAX:
        raise ValueError(f"grid exceeds the largest supported frequency {U_MAX:g}")
    counts, capped = _factor_counts(plan, grid)
    values = _transform(plan, grid, counts)
    moduli = np.hypot(values.real, values.imag).tolist()
    samples = [(u if isinstance(u, int) else float(u), mag) for u, mag in zip(grid, moduli)]
    spectrum = list(map(SpectrumSample, map(float, grid), values.tolist()))
    envelope = dyadic_block_envelope(samples)
    alpha_hat = decay_exponent_fit(envelope)
    return DecayReport(
        alpha_hat=alpha_hat,
        beta_target=float(beta),
        passed=alpha_hat >= beta - tolerance,
        truncation_depth_used=int(counts[-1]),
        capped=bool(capped.any()),
        envelope=tuple(envelope),
        spectrum=tuple(spectrum),
    )
