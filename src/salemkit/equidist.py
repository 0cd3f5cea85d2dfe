"""Grid approximations of subsets of [0,1], equidistribution-order
estimation, the Salem characterization checker, and the grid-to-integer
extraction.

An N-approximation records the cells [j/N, (j+1)/N) that meet a target
set.  The equidistribution order of a sequence of approximations is
fitted from normalized Weyl sums of the cell fractions over a frequency
sweep, using the shared bound-fitting estimator on the finest member and
a uniform-constant fit along the sequence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cantor import C_BOUNDS, CantorStage
from .core_sets import (
    EXPONENT_CAP,
    ZERO_FLOOR,
    IntegerSet,
    as_integers,
    decay_exponent_fit,
    density_fit,
    exp_sum,
    geometric_grid,
    loglog_fit,
    require_increasing,
)

# Fitted orders are clamped to [0, ORDER_CAP].
ORDER_CAP = EXPONENT_CAP
# A characterization whose order clears this floor but misses the density
# exponent is "salem-type" rather than "neither".
SALEM_TYPE_FLOOR = 0.05


@dataclass(frozen=True)
class NApproximation:
    N: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", as_integers(self.cells, "cells"))
        if self.N < 1:
            raise ValueError("N must be positive")
        require_increasing(self.cells, "cells must be strictly increasing and non-negative")
        if self.cells and self.cells[-1] >= self.N:
            raise ValueError("cells must lie below N")


@dataclass(frozen=True)
class OrderEstimate:
    alpha: float
    per_m_bounds: tuple[tuple[float, float], ...]
    cap: float


@dataclass(frozen=True)
class StageDensity:
    N: int
    count: int
    c_value: float
    pointwise_exponent: float


@dataclass(frozen=True)
class CharacterizationReport:
    density_exponents: tuple[StageDensity, ...]
    order_estimate: OrderEstimate
    verdict: str
    beta_hat: float
    c_in_bounds: bool
    tolerance: float


def _coerce_target(target) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """Split a list target into exact points and half-open intervals [lo, hi)."""
    points: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction]] = []
    for item in target:
        if isinstance(item, (tuple, list)):
            if len(item) != 2:
                raise ValueError("interval targets must be (lo, hi) pairs")
            lo, hi = Fraction(item[0]), Fraction(item[1])
            if not 0 <= lo < hi <= 1:
                raise ValueError("intervals must satisfy 0 <= lo < hi <= 1")
            intervals.append((lo, hi))
        else:
            p = Fraction(item)
            if not 0 <= p <= 1:
                raise ValueError("points must lie in [0, 1]")
            points.append(p)
    return points, intervals


def n_approximation(target, N: int) -> NApproximation:
    """Cells [j/N, (j+1)/N) that meet the target, decided exactly.

    The target is a finite list of rational points, a list of half-open
    (lo, hi) interval pairs, or a CantorStage.  An empty target gives an
    empty approximation.
    """
    if N < 1:
        raise ValueError("N must be positive")
    cells: set[int] = set()
    if isinstance(target, CantorStage):
        D, length = target.denominator, target.length
        spans = ((n * N // D, -(-(n + length) * N // D)) for n in target.numerators)
    else:
        points, intervals = _coerce_target(target)
        cells.update(int(p * N) for p in points if p < 1)
        spans = ((int(lo * N), math.ceil(hi * N)) for lo, hi in intervals)
    # Cell c meets [lo, hi) iff c/N < hi and (c+1)/N > lo, that is iff
    # floor(lo*N) <= c < ceil(hi*N): each span is that pair of bounds.
    for first, stop in spans:
        cells.update(range(first, min(stop, N)))
    return NApproximation(N, tuple(sorted(cells)))


def weyl_moduli(cells: Sequence[int], N: int, ms: Sequence[int]) -> np.ndarray:
    """|(1/d) sum_j e^{-2 pi i (j/N) m}| for each m, with the phases j*m
    reduced mod N exactly by :func:`exp_sum` at every N."""
    if len(cells) == 0:
        raise ValueError("empty approximation has no Weyl sums")
    sums = exp_sum(cells, N, ms) / len(cells)
    # Scalar abs: numpy's vectorised complex abs rounds differently, and
    # the reports print these moduli.
    return np.array([abs(v) for v in sums])


def equidist_order(
    approximations: Sequence[NApproximation],
    *,
    m_grid: Sequence[int] | None = None,
) -> OrderEstimate:
    """Fit the equidistribution order of an approximation sequence.

    Normalized Weyl sums of the finest approximation are swept over integer
    frequencies up to N-1 (geometric at 6 per octave by default, or an
    explicit ``m_grid``)
    and fed to the bound-fitting exponent estimator, which fixes C = 1 in
    |W(m)| <= C m**(-alpha/2).  The default sweep is kept moderate since
    every extra sample can only pull the fitted minimum down.  Per-frequency
    moduli of the finest approximation are retained for audit.

    With two or more approximations the bound must also hold with one
    constant C along the whole sequence: each approximation contributes the
    peak of |W_i(m)| over its own part of the sweep, N_{i-1}/2 < m <= N_i/2,
    and alpha from the least-squares slope of log peak against log N_i is
    reported when it is smaller.  A single approximation is fitted on its
    own sweep alone.
    """
    if not approximations:
        raise ValueError("need at least one approximation")
    finest = max(approximations, key=lambda a: a.N)
    if finest.N < 16:
        raise ValueError("the largest N must be at least 16")
    if m_grid is None:
        ms = geometric_grid(2, finest.N - 1, 6, integers=True)
    else:
        ms = sorted(set(as_integers(m_grid, "m_grid")))
        if not ms or ms[0] < 2 or ms[-1] >= finest.N:
            raise ValueError("m grid must lie within [2, N-1]")
    moduli = weyl_moduli(finest.cells, finest.N, ms)
    per_m = tuple((float(m), float(b)) for m, b in zip(ms, moduli))
    alpha = decay_exponent_fit(per_m)
    if len(approximations) >= 2:
        alpha = min(alpha, _sequence_order(approximations, finest, ms, moduli))
    return OrderEstimate(alpha, per_m, ORDER_CAP)


def _sequence_order(
    approximations: Sequence[NApproximation],
    finest: NApproximation,
    ms: Sequence[int],
    finest_moduli: np.ndarray,
) -> float:
    """Order implied by a uniform constant along the sequence, or ORDER_CAP
    when fewer than two approximations have a nonzero peak on their part
    of the sweep.  Empty approximations have no Weyl sums and are skipped."""
    points = []
    lo = 0.0
    for approx in sorted(approximations, key=lambda a: a.N):
        hi = approx.N / 2
        start, stop = bisect_right(ms, lo), bisect_right(ms, hi)
        lo = hi
        if start == stop or not approx.cells:
            continue
        if approx is finest:
            part = finest_moduli[start:stop]
        else:
            part = weyl_moduli(approx.cells, approx.N, ms[start:stop])
        peak = float(part.max())
        if peak >= ZERO_FLOOR:
            points.append((approx.N, peak))
    if len(points) < 2:
        return ORDER_CAP
    slope, _ = loglog_fit(points)
    return min(ORDER_CAP, max(0.0, -2.0 * slope))


def characterize_salem(
    approximations: Sequence[NApproximation],
    beta: float,
    tolerance: float = 0.1,
) -> CharacterizationReport:
    """Check the two-sided characterization on a stage sequence.

    Stage counts are normalized by N**beta to extract the constants c_i and
    checked against the plan bounds ``cantor.C_BOUNDS``; the fitted density
    exponent beta_hat is compared with the equidistribution order.  Verdict:
    salem when |beta_hat - alpha| <= tolerance, salem-type when alpha clears
    SALEM_TYPE_FLOOR but falls short of beta_hat, neither otherwise.
    """
    if len(approximations) < 3:
        raise ValueError("need at least 3 approximations")
    require_increasing([a.N for a in approximations], "approximation sizes must be strictly increasing")
    stages = []
    for approx in approximations:
        count = len(approx.cells)
        c_val = count / approx.N**beta
        pw = math.log(count) / math.log(approx.N) if count > 0 and approx.N > 1 else 0.0
        stages.append(StageDensity(approx.N, count, c_val, pw))
    c_in_bounds = all(C_BOUNDS[0] <= s.c_value <= C_BOUNDS[1] for s in stages)
    beta_hat = density_fit([(s.N, s.count) for s in stages])[0]
    order = equidist_order(approximations)
    if abs(beta_hat - order.alpha) <= tolerance:
        verdict = "salem"
    elif order.alpha > SALEM_TYPE_FLOOR:
        verdict = "salem-type"
    else:
        verdict = "neither"
    return CharacterizationReport(tuple(stages), order, verdict, beta_hat, c_in_bounds, tolerance)


def integers_from_approximations(approximations: Sequence[NApproximation]) -> IntegerSet:
    """Integer set whose stage-i block encodes the cells new at stage i.

    With N_0 = 0, stage i contributes N_{i-1} + a for every cell numerator
    a whose fraction a/N_i was not already a cell fraction of stage i-1.
    Fractions are compared as integers c * (L / N_i) over the lcm L of the
    N_i.  Overlapping blocks are merged by set union.
    """
    if not approximations:
        raise ValueError("need at least one approximation")
    require_increasing([a.N for a in approximations], "approximation sizes must be strictly increasing")
    L = math.lcm(*(a.N for a in approximations))
    out: set[int] = set()
    prev_keys: set[int] = set()
    prev_N = 0
    horizon = 1
    for approx in approximations:
        scale = L // approx.N
        out.update(prev_N + c for c in approx.cells if c * scale not in prev_keys)
        horizon = max(horizon, prev_N + approx.N)
        prev_keys = {c * scale for c in approx.cells}
        prev_N = approx.N
    return IntegerSet(tuple(sorted(out)), horizon)
