"""Stagewise Bernoulli refinement of [0,1] and its statistics.

Stage 1 splits [0,1] into N_1 cells and keeps each with probability
N_1**(-beta); stage i+1 splits every surviving cell into N_{i+1} children
and keeps each child with probability N_{i+1}**(-beta), so a depth-i cell
survives unconditionally with probability (N_1*...*N_i)**(-beta).  Trials
are reproducible: the per-trial stream is seeded by (master_seed,
trial_index) and is independent of execution order.  Every experiment
walks the same trial stream, trials 0..trials-1 one at a time.  Each
stage draws its keep-mask first, in blocks, from the trial's one stream,
and builds only the surviving cells.  The lemma-6.3 experiment reads each
trial as a :class:`TrialResult`; the dimension and order experiments read
only the final stage, straight from the refinement's int64 arrays, and
never build the per-stage integer tuples.
"""

from __future__ import annotations

import cmath
import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core_sets import _CHUNK, as_integers, exp_sum
from .equidist import NApproximation, OrderEstimate, equidist_order


@dataclass(frozen=True)
class RandomFractalConfig:
    beta: float
    level_sizes: tuple[int, ...]
    depth: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "level_sizes", as_integers(self.level_sizes, "level_sizes"))
        if not 0 <= self.beta < 1:
            raise ValueError("beta must lie in [0, 1)")
        if not 1 <= self.depth <= len(self.level_sizes):
            raise ValueError("depth must select a prefix of level_sizes")
        if any(n < 1 for n in self.level_sizes):
            raise ValueError("level sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.resolution() >= 2**63:
            raise ValueError("the resolution N_1 * ... * N_depth must stay below 2**63 (int64 cells)")

    def resolution(self) -> int:
        """M = N_1 * ... * N_depth."""
        return math.prod(self.level_sizes[: self.depth])


@dataclass(frozen=True)
class TrialResult:
    beta: float
    level_sizes: tuple[int, ...]
    stages: tuple[tuple[int, ...], ...]
    white_counts: tuple[int, ...]
    extinct: bool
    trial_index: int
    master_seed: int

    def resolution(self) -> int:
        """N_1 * ... * N_i over the i recorded stages."""
        return math.prod(self.level_sizes[: len(self.stages)])


@dataclass(frozen=True)
class DimensionStats:
    mean_dim: float
    std_dim: float
    # Share of trials that went extinct.
    extinct: float
    trials: int
    dims: tuple[float, ...]


@dataclass(frozen=True)
class OrderStats:
    target_order: float
    median_alpha: float | None
    alphas: tuple[float, ...]
    extinct: int
    trials: int


@dataclass(frozen=True)
class LemmaCheckReport:
    N1: int
    epsilon1: float
    u_grid: str
    satisfied_fraction: float
    trials: int


def trial_rng(config: RandomFractalConfig, trial_index: int) -> np.random.Generator:
    """Per-trial generator keyed by (master_seed, trial_index)."""
    return np.random.default_rng([config.master_seed, trial_index])


def generate_trial(config: RandomFractalConfig, trial_index: int) -> TrialResult:
    """One Bernoulli refinement down to the configured depth.

    If every cell dies before the requested depth the result is truncated
    at the first empty stage (which is recorded) and flagged extinct.
    Identical (master_seed, trial_index) gives identical output.
    """
    if not 0 <= trial_index < config.trials:
        raise ValueError("trial_index outside the configured trial count")
    stages = _refine(config, trial_index)
    counts = tuple(stage.size for stage in stages)
    return TrialResult(
        beta=config.beta,
        level_sizes=config.level_sizes[: config.depth],
        stages=tuple(tuple(stage.tolist()) for stage in stages),
        white_counts=counts,
        extinct=counts[-1] == 0,
        trial_index=trial_index,
        master_seed=config.master_seed,
    )


def _refine(config: RandomFractalConfig, trial_index: int) -> list[np.ndarray]:
    """The int64 cells of every stage of one trial, ending at the configured
    depth or at the first empty stage, whichever comes first: the last
    stage is empty exactly when the trial went extinct.

    Child j of parent c is the cell c*size + j, kept when its uniform draw
    is below size**(-beta); draws run parent-major, one per child.  Each
    stage draws its keep-mask first and builds only the survivors, over
    blocks of at most ``_CHUNK`` draws (and at least one parent).  The
    blocks take consecutive draws of the one stream, and a generator gives
    the same doubles in pieces as in one call, so the cells do not depend
    on the block size.
    """
    rng = trial_rng(config, trial_index)
    stages: list[np.ndarray] = []
    # Stage 1 refines the single cell 0 of the unit interval.
    current = np.zeros(1, dtype=np.int64)
    for size in config.level_sizes[: config.depth]:
        if current.size == 0:
            break
        p = size ** (-config.beta)
        rows = max(1, _CHUNK // size)
        blocks = []
        for lo in range(0, current.size, rows):
            parents = current[lo : lo + rows]
            idx = np.flatnonzero(rng.random(parents.size * size) < p)
            blocks.append(parents[idx // size] * size + idx % size)
        current = np.concatenate(blocks)
        stages.append(current)
    return stages


def _trials(config: RandomFractalConfig) -> Iterator[TrialResult]:
    """Every configured trial in trial order, extinct ones included.

    Trials are generated one at a time and dropped once the caller moves
    on: the refinement itself holds only the survivors of each stage, but a
    64**4 trial's cells as tuples of Python integers still take megabytes.
    """
    for t in range(config.trials):
        yield generate_trial(config, t)


def dimension_experiment(config: RandomFractalConfig) -> DimensionStats:
    """Box-dimension statistics log(count)/log(M_depth) across trials.

    Extinct trials are excluded from the mean and counted in the
    extinction rate.
    """
    if config.depth < 3:
        raise ValueError("dimension experiments need depth at least 3")
    M = config.resolution()
    if M < 2:
        raise ValueError("dimension experiments need a resolution N_1 * ... * N_depth of at least 2")
    # Only the final count is read, so the trials stay int64 arrays.
    finals = (_refine(config, t)[-1].size for t in range(config.trials))
    dims = [math.log(count) / math.log(M) for count in finals if count]
    if dims:
        arr = np.asarray(dims)
        mean = float(arr.mean())
        std = float(arr.std())
    else:
        mean = float("nan")
        std = float("nan")
    extinct = config.trials - len(dims)
    return DimensionStats(mean, std, extinct / config.trials, config.trials, tuple(dims))


def order_experiment(config: RandomFractalConfig) -> OrderStats:
    """Corollary 6.4 across trials: the equidistribution order of every
    surviving trial's final-stage cells, their median (None when every
    trial went extinct) and the extinct count, against the target 1 - beta.
    """
    # Only the final stage is scored, read straight from the int64 arrays.
    M = config.resolution()
    finals = (_refine(config, t)[-1] for t in range(config.trials))
    alphas = [equidist_order([NApproximation(M, final.tolist())]).alpha for final in finals if final.size]
    median = statistics.median(alphas) if alphas else None
    return OrderStats(1.0 - config.beta, median, tuple(alphas), config.trials - len(alphas), config.trials)


def mu1_hat(trial: TrialResult, us: Sequence) -> np.ndarray:
    """Transform of the reweighted stage-1 measure at every frequency in ``us``.

    The measure has density p**(-1) on the union of white stage-1 cells
    (p = N_1**(-beta)), so each cell contributes its exact interval
    integral of e^{-2 pi i u x}.  At u = 0 this is white/(p*N_1); with no
    white cells the zero measure's transform (identically 0) is returned.
    Each u is read as the rational ``Fraction(u)``; the cell phases u*c/N_1
    are reduced exactly by one :func:`exp_sum` call over the lcm of the
    frequencies' denominators.
    """
    out = np.zeros(len(us), dtype=complex)
    cells = trial.stages[0] if trial.stages else ()
    if not cells:
        return out
    N1 = trial.level_sizes[0]
    p = N1 ** (-trial.beta)
    D, numerators, factors = _stage1_grid(N1, tuple(us))
    combs = exp_sum(cells, N1 * D, numerators)
    for i, (factor, comb) in enumerate(zip(factors, combs)):
        out[i] = len(cells) / (p * N1) if factor is None else complex(comb) * factor / p
    return out


@functools.lru_cache(maxsize=4)
def _stage1_grid(N1: int, us: tuple) -> tuple[int, tuple[int, ...], tuple[complex | None, ...]]:
    """What :func:`mu1_hat` needs of its frequencies, which no trial changes:
    the lcm D of the denominators of ``Fraction(u)``, each u*D as an
    integer, and each cell integral's closing factor (None at u = 0).

    Cached, so the trials of one experiment reduce their grid once.  Equal
    keys give equal results, since equal numbers have equal ``Fraction``s.
    """
    qs = [Fraction(u) for u in us]
    D = math.lcm(*(q.denominator for q in qs))
    numerators = tuple(q.numerator * (D // q.denominator) for q in qs)
    # Scalar cmath per u: the spectrum files print this rounding.
    factors = tuple(
        None if q == 0 else (1 - cmath.exp(-2j * math.pi * float(q) / N1)) / (2j * math.pi * float(q)) for q in qs
    )
    return D, numerators, factors


def lemma63_experiment(config: RandomFractalConfig, epsilon1: float, u_max: int) -> LemmaCheckReport:
    """Fraction of depth-1 trials with |mu1_hat(u)| < epsilon1 * u**((beta-1)/2)
    at every integer u in [2, u_max].

    The Lebesgue baseline vanishes at nonzero integers, so the checked
    difference is |mu1_hat| itself.  Requires u_max <= N_1.  Every trial is
    scored, extinct ones included: an empty trial has the zero transform,
    so it passes exactly when epsilon1 > 0.
    """
    if config.depth != 1:
        raise ValueError("the single-stage check needs a depth-1 config")
    N1 = config.level_sizes[0]
    if not 2 <= u_max <= N1:
        raise ValueError("u_max must lie in [2, N_1]")
    us = range(2, u_max + 1)
    bounds = epsilon1 * np.arange(2, u_max + 1, dtype=float) ** ((config.beta - 1.0) / 2.0)
    satisfied = sum(bool(np.all(np.abs(mu1_hat(trial, us)) < bounds)) for trial in _trials(config))
    return LemmaCheckReport(
        N1=N1,
        epsilon1=float(epsilon1),
        u_grid=f"integers 2..{u_max}",
        satisfied_fraction=satisfied / config.trials,
        trials=config.trials,
    )


def corollary64_check(trial: TrialResult) -> OrderEstimate:
    """Equidistribution order of the final-stage cell left endpoints."""
    if trial.extinct:
        raise ValueError("extinct trial has no final-stage points")
    M = trial.resolution()
    approx = NApproximation(M, trial.stages[-1])
    return equidist_order([approx])
