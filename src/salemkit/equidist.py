"""Grid approximations of subsets of [0,1], equidistribution-order
estimation, the Salem characterization checker, and the grid-to-integer
extraction.

An N-approximation records the cells [j/N, (j+1)/N) that meet a target
set.  :func:`orders` fits the equidistribution order of each of many sets
of cells at one N, from one grouped call for their normalized Weyl sums
over a frequency sweep, with the shared bound-fitting estimator; that of a
sequence of approximations is its finest member's, lowered by a
uniform-constant fit along the sequence.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cantor import C_BOUNDS, CantorStage
from .core_sets import (
    _INT64_MAX,
    EXPONENT_CAP,
    ZERO_FLOOR,
    IntegerSet,
    # Defined beside IntegerSet, so that formats reads and writes it
    # without loading this module; re-exported from here.
    NApproximation,
    _moduli,
    as_integers,
    decay_exponent_fit,
    density_fit,
    exp_sum,
    exp_sums,
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
    empty approximation.  A stage's cells are built by :func:`_stage_cells`;
    other targets add each interval's range of cells to a set of Python ints.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if isinstance(target, CantorStage):
        return NApproximation(N, _stage_cells(target, N).tolist())
    points, intervals = _coerce_target(target)
    cells = {int(p * N) for p in points if p < 1}
    # Cell c meets [lo, hi) iff c/N < hi and (c+1)/N > lo, that is iff
    # floor(lo*N) <= c < ceil(hi*N).
    for lo, hi in intervals:
        cells.update(range(int(lo * N), min(math.ceil(hi * N), N)))
    return NApproximation(N, tuple(sorted(cells)))


def _stage_cells(stage: CantorStage, N: int) -> np.ndarray:
    """The cells met by the stage's intervals [n/D, (n + length)/D), as a
    strictly increasing array, without a sort.

    Each span runs from floor(n*N/D) to min(ceil((n + length)*N/D), N).
    The numerators are int64 while D and every (n + length) * N fit in
    int64, and Python ints in an object array otherwise; the same numpy
    code runs on either, and the cells have that dtype.  Sorted numerators
    make both bounds non-decreasing, so clipping each start to the previous
    stop leaves disjoint spans in order (possibly empty), and their cells
    are one ``repeat`` plus an ``arange``.
    """
    D, length, numerators = stage.denominator, stage.length, stage.numerators
    N = operator.index(N)
    # The numerators are sorted, so the last one has the largest product.
    fits = bool(numerators) and max(D, (numerators[-1] + length) * N) <= _INT64_MAX
    n = np.array(numerators, dtype=np.int64 if fits else object)
    first = n * N // D
    stop = np.minimum(-(-(n + length) * N // D), N)
    np.maximum(first[1:], stop[:-1], out=first[1:])
    counts = np.maximum(stop - first, 0).astype(np.int64, copy=False)
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(first - offsets, counts)


def weyl_moduli(cells: Sequence[int], N: int, ms: Sequence[int]) -> np.ndarray:
    """|(1/d) sum_j e^{-2 pi i (j/N) m}| for each m, with the phases j*m
    reduced mod N exactly by :func:`exp_sum` at every N."""
    if len(cells) == 0:
        raise ValueError("empty approximation has no Weyl sums")
    return _moduli(exp_sum(cells, N, ms) / len(cells))


def orders(groups: Sequence[Sequence[int]], N: int, m_grid: Sequence[int] | None = None) -> list[OrderEstimate]:
    """``equidist_order([NApproximation(N, g)], m_grid=m_grid)`` for each
    group g of cells, from one grouped :func:`exp_sums` call, whose rows
    have the same bits in any grouping.  An N below 16 is refused before an
    empty group is; no groups give [] at any N."""
    if len(groups) == 0:
        return []
    ms = _sweep(N, m_grid)
    if not all(len(g) for g in groups):
        raise ValueError("empty approximation has no Weyl sums")
    fs = list(map(float, ms))
    per_ms = [tuple(zip(fs, _moduli(row / len(g)).tolist())) for row, g in zip(exp_sums(groups, N, ms), groups)]
    return [OrderEstimate(decay_exponent_fit(per_m), per_m, ORDER_CAP) for per_m in per_ms]


def equidist_order(
    approximations: Sequence[NApproximation],
    *,
    m_grid: Sequence[int] | None = None,
) -> OrderEstimate:
    """Fit the equidistribution order of an approximation sequence.

    The finest approximation is fitted by :func:`orders`: its normalized
    Weyl sums are swept over integer frequencies up to N-1 (geometric at 6
    per octave by default, or an explicit ``m_grid``) and fed to the
    bound-fitting exponent estimator, which fixes C = 1 in
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
    ms = _sweep(finest.N, m_grid)
    (estimate,) = orders([finest.cells], finest.N, ms)
    if len(approximations) < 2:
        return estimate
    alpha = _sequence_order(approximations, finest, ms, estimate.per_m_bounds)
    return replace(estimate, alpha=min(estimate.alpha, alpha))


def _sweep(N: int, m_grid: Sequence[int] | None = None) -> list[int]:
    """The frequencies at which a finest member with N cells is swept:
    ``m_grid`` sorted and deduplicated, or by default the integers 2..N-1
    geometric at 6 per octave."""
    if N < 16:
        raise ValueError("the largest N must be at least 16")
    if m_grid is None:
        return geometric_grid(2, N - 1, 6, integers=True)
    ms = sorted(set(as_integers(m_grid, "m_grid")))
    if not ms or ms[0] < 2 or ms[-1] >= N:
        raise ValueError("m grid must lie within [2, N-1]")
    return ms


def _sequence_order(
    approximations: Sequence[NApproximation],
    finest: NApproximation,
    ms: Sequence[int],
    finest_bounds: Sequence[tuple[float, float]],
) -> float:
    """Order implied by a uniform constant along the sequence, or ORDER_CAP
    when fewer than two approximations have a nonzero peak on their part
    of the sweep.  The finest member's moduli are read from its estimate's
    ``per_m_bounds``; empty approximations have no Weyl sums and are skipped."""
    points = []
    lo = 0.0
    for approx in sorted(approximations, key=lambda a: a.N):
        hi = approx.N / 2
        start, stop = bisect_right(ms, lo), bisect_right(ms, hi)
        lo = hi
        if start == stop or not approx.cells:
            continue
        if approx is finest:
            peak = max(b for _, b in finest_bounds[start:stop])
        else:
            peak = float(weyl_moduli(approx.cells, approx.N, ms[start:stop]).max())
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
    An N past the double range has no N**beta and raises ``ValueError``.
    """
    if len(approximations) < 3:
        raise ValueError("need at least 3 approximations")
    require_increasing([a.N for a in approximations], "approximation sizes must be strictly increasing")
    stages = []
    for approx in approximations:
        count = len(approx.cells)
        try:
            c_val = count / approx.N**beta
        except OverflowError as exc:
            raise ValueError("approximation sizes must lie within the double range") from exc
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
    N_i.  Each stage's keys are an array, sorted because its cells are, of
    int64 when L times the largest N_i fits in int64 and of Python ints
    otherwise; membership in the previous stage's keys is a
    ``searchsorted``.  Overlapping blocks are merged by set union.
    """
    if not approximations:
        raise ValueError("need at least one approximation")
    require_increasing([a.N for a in approximations], "approximation sizes must be strictly increasing")
    L = math.lcm(*(a.N for a in approximations))
    # Sizes increase, so the last is the largest.
    dtype = np.int64 if L * operator.index(approximations[-1].N) <= _INT64_MAX else object
    out: set[int] = set()
    prev_keys = np.empty(0, dtype=dtype)
    prev_N = 0
    horizon = 1
    for approx in approximations:
        cells = np.array(approx.cells, dtype=dtype)
        keys = cells * (L // approx.N)
        if len(prev_keys):
            at = np.minimum(np.searchsorted(prev_keys, keys), len(prev_keys) - 1)
            cells = cells[prev_keys[at] != keys]
        out.update((cells + prev_N).tolist())
        horizon = max(horizon, prev_N + approx.N)
        prev_keys = keys
        prev_N = approx.N
    return IntegerSet(tuple(sorted(out)), horizon)
