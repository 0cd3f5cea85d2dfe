"""Stagewise Bernoulli refinement of [0,1] and its statistics.

Stage 1 splits [0,1] into N_1 cells and keeps each with probability
N_1**(-beta); stage i+1 splits every surviving cell into N_{i+1} children
and keeps each child with probability N_{i+1}**(-beta), so a depth-i cell
survives unconditionally with probability (N_1*...*N_i)**(-beta).  Trials
are reproducible: the per-trial stream is seeded by (master_seed,
trial_index) and is independent of execution order.  Every experiment
walks the same trial stream, trials 0..trials-1 one at a time.  Each
stage draws its keep-mask first, in blocks, from the trial's one stream,
and builds only the surviving cells.  Each experiment builds only what it
reads, and every trial is read as the int64 arrays of its stages: the
lemma-6.3 experiment reads the first stage, order trials are scored from
the final stage with one frequency sweep per experiment, and a dumped
trial is rendered from every stage.  The dimension walk reads only the
size of the last stage, so it takes that stage's draws and counts them
without building it.
"""

from __future__ import annotations

import cmath
import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core_sets import _CHUNK, as_integers, exp_sum
from .equidist import _finest_fit, _sweep


@dataclass(frozen=True)
class RandomFractalConfig:
    beta: float
    level_sizes: tuple[int, ...]
    depth: int
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "level_sizes", as_integers(self.level_sizes, "level_sizes"))
        for name in ("depth", "trials", "master_seed"):
            value = getattr(self, name)
            # A bool passes as_integers (it is an int), but is no count.
            if isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not a bool")
            object.__setattr__(self, name, as_integers([value], name)[0])
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


def _trial_fields(config: RandomFractalConfig, trial_index: int) -> dict:
    """One Bernoulli refinement down to the configured depth, as the record
    ``--dump-trial`` writes: beta, level_sizes, stages, white_counts,
    extinct, trial_index and master_seed.

    Each stage is the int64 array of :func:`_refine`.  If every cell dies
    before the requested depth the stages end at the first empty stage
    (which is recorded) and the trial is flagged extinct.  Identical
    (master_seed, trial_index) gives identical output.
    """
    if not 0 <= trial_index < config.trials:
        raise ValueError("trial_index outside the configured trial count")
    stages = _refine(config, trial_index)
    counts = tuple(stage.size for stage in stages)
    return {
        "beta": config.beta,
        "level_sizes": config.level_sizes[: config.depth],
        "stages": tuple(stages),
        "white_counts": counts,
        "extinct": counts[-1] == 0,
        "trial_index": trial_index,
        "master_seed": config.master_seed,
    }


def _refine(config: RandomFractalConfig, trial_index: int) -> list[np.ndarray]:
    """The int64 cells of every stage of one trial, ending at the configured
    depth or at the first empty stage, whichever comes first: the last
    stage is empty exactly when the trial went extinct.
    """
    rng = trial_rng(config, trial_index)
    stages: list[np.ndarray] = []
    # Stage 1 refines the single cell 0 of the unit interval.
    current = np.zeros(1, dtype=np.int64)
    for size in config.level_sizes[: config.depth]:
        if current.size == 0:
            break
        current = _next_stage(rng, current, size, config.beta)
        stages.append(current)
    return stages


def _final_count(config: RandomFractalConfig, trial_index: int) -> int:
    """The number of cells in the last stage of one trial, 0 when it went
    extinct: the stages above are built as by :func:`_refine`, and the last
    one takes the same draws and only counts its survivors."""
    rng = trial_rng(config, trial_index)
    current = np.zeros(1, dtype=np.int64)
    *upper, last = config.level_sizes[: config.depth]
    for size in upper:
        current = _next_stage(rng, current, size, config.beta)
        if current.size == 0:
            return 0
    return _next_stage(rng, current, last, config.beta, count=True)


def _next_stage(
    rng: np.random.Generator, parents: np.ndarray, size: int, beta: float, *, count: bool = False
) -> np.ndarray | int:
    """The surviving children of the non-empty int64 ``parents``, or with
    ``count`` only how many there are.

    Child j of parent c is the cell c*size + j, kept when its uniform draw
    is below size**(-beta); draws run parent-major, one per child.  The
    keep-mask is drawn first and only the survivors are built, over blocks
    of at most ``_CHUNK`` draws (and at least one parent).  The blocks take
    consecutive draws of the one stream, and a generator gives the same
    doubles in pieces as in one call, so the cells do not depend on the
    block size, and a count is the size of the stage it stands for.
    """
    p = size ** (-beta)
    rows = max(1, _CHUNK // size)
    blocks = []
    survivors = 0
    for lo in range(0, parents.size, rows):
        block = parents[lo : lo + rows]
        keep = rng.random(block.size * size) < p
        if count:
            survivors += int(np.count_nonzero(keep))
        else:
            idx = np.flatnonzero(keep)
            blocks.append(block[idx // size] * size + idx % size)
    return survivors if count else np.concatenate(blocks)


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
    # Only the final count is read, so the last stage is counted, not built.
    finals = (_final_count(config, t) for t in range(config.trials))
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
    # Each final stage is scored as the int64 array _refine returns: its
    # cells are sorted, distinct and below M by construction.  The sweep is
    # built at the first survivor, so an experiment whose trials all went
    # extinct needs none and is not refused at M < 16.
    M = config.resolution()
    ms = None
    alphas = []
    for t in range(config.trials):
        final = _refine(config, t)[-1]
        if final.size:
            if ms is None:
                ms = _sweep(M)
            alphas.append(_finest_fit(final, M, ms)[0])
    median = statistics.median(alphas) if alphas else None
    return OrderStats(1.0 - config.beta, median, tuple(alphas), config.trials - len(alphas), config.trials)


def mu1_hat(cells: np.ndarray, N1: int, beta: float, us: Sequence) -> np.ndarray:
    """Transform of the reweighted stage-1 measure at every frequency in ``us``.

    ``cells`` are the white stage-1 cells of a trial, the int64 array
    ``_refine(config, t)[0]``.  The measure has density p**(-1) on their
    union (p = N_1**(-beta)), so each cell contributes its exact interval
    integral of e^{-2 pi i u x}.  At u = 0 this is white/(p*N_1); with no
    white cells the zero measure's transform (identically 0) is returned.
    Each u is read as the rational ``Fraction(u)``; the cell phases u*c/N_1
    are reduced exactly by one :func:`exp_sum` call over the lcm of the
    frequencies' denominators.
    """
    out = np.zeros(len(us), dtype=complex)
    if not len(cells):
        return out
    p = N1 ** (-beta)
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
    stage1 = (_refine(config, t)[0] for t in range(config.trials))
    satisfied = sum(bool(np.all(np.abs(mu1_hat(cells, N1, config.beta, us)) < bounds)) for cells in stage1)
    return LemmaCheckReport(
        N1=N1,
        epsilon1=float(epsilon1),
        u_grid=f"integers 2..{u_max}",
        satisfied_fraction=satisfied / config.trials,
        trials=config.trials,
    )
