"""Stagewise Bernoulli refinement of [0,1] and its statistics.

Stage 1 splits [0,1] into N_1 cells and keeps each with probability
N_1**(-beta); stage i+1 splits every surviving cell into N_{i+1} children
and keeps each child with probability N_{i+1}**(-beta), so a depth-i cell
survives unconditionally with probability (N_1*...*N_i)**(-beta).  Trials
are reproducible: the per-trial stream is seeded by (master_seed,
trial_index) and is independent of execution order.  Every experiment
walks the same trial stream, trials 0..trials-1, in one loop: its trials
are drawn by :func:`_draw_trials`, shared among threads by
``core_sets._share`` when a trial's expected draws exceed one block and
drawn on the calling thread otherwise, and the lemma-6.3 and order
experiments score them in batches of whole trials, each batch with one
grouped ``core_sets.exp_sums`` call (for orders, ``equidist.orders``'s),
whose slabs are shared among the threads.  A batch holds at most about
``_LEMMA_BATCH_ENTRIES`` stage-1 cells and transform values, or
``_BATCH_CELLS`` final-stage cells, at their expected counts.  Each
trial is a pure function of (config, t), so every statistic is the same
whichever thread draws it, and the draws and keep-masks of a shared
trial fill blocks that the experiment's calling thread allocated.  Each
stage draws its keep-mask first, in blocks, from the trial's one stream,
and builds only the surviving cells.  Each experiment builds only what it reads, and every
trial is read as the int64 arrays of its stages: the lemma-6.3
experiment reads the first stage, order trials are scored from the final
stage against the one frequency sweep of their resolution, and a dumped
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
from typing import Callable, Sequence

import numpy as np

from .core_sets import _CHUNK, _blocks, _moduli, _quotient, _share, as_integers, exp_sums
from .equidist import orders


# Final-stage cells that the order experiment holds for one exp_sums call,
# counted at their expected number per trial: 5 MB of int64 cells.  The
# benchmark's corollary-6.4 runs at 64**3 (about 579k and 26k expected
# cells over 50 trials) take one call each; a 64**4 run at beta 0.25 takes
# 2 of its 262k-cell trials a call.
_BATCH_CELLS = 5 << 17
# Entries that lemma 6.3 holds for one batch of trials, counting each
# trial's expected N_1**(1 - beta) stage-1 cells and its row of
# transform values.  The benchmark's 200-trial runs (at most 127 entries
# a trial) take one batch each.
_LEMMA_BATCH_ENTRIES = 1 << 16


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
    """Per-trial generator keyed by (master_seed, trial_index).

    Its ``SeedSequence`` takes the uint32 words of the two integers, each
    least significant first, as one array: the words numpy's coercion of
    the list ``[master_seed, trial_index]`` gives, so the generator state
    is that of ``default_rng([master_seed, trial_index])``, without the
    coercion's per-call cost.
    """
    words = np.array(_uint32_words(config.master_seed) + _uint32_words(trial_index), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def _uint32_words(n: int) -> list[int]:
    """The uint32 words of the non-negative ``n``, least significant first;
    0 is the one word 0."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _expected_draws(config: RandomFractalConfig) -> float:
    """The uniforms one trial draws on average: sum_i N_i * prod_{j<i}
    N_j**(1 - beta), each stage's size times the expected cells above it."""
    draws, cells = 0.0, 1.0
    for size in config.level_sizes[: config.depth]:
        draws += size * cells
        cells *= size ** (1.0 - config.beta)
    return draws


def _draw_trials(config: RandomFractalConfig, fn: Callable[[int], object], trials: range) -> list:
    """[fn(t) for t in trials], each trial drawn whole by one thread.

    The trials are shared among threads by ``core_sets._share`` only when
    a trial's expected draws exceed one ``_CHUNK`` block, so that numpy's
    block work, which releases the GIL, outweighs the Python around it:
    the benchmark's 64**4 dimension trials (about 776k draws each) are
    shared, its 64**3 order trials and lemma 6.3's stage-1 draws (at most
    N_1 = 4096) run in a loop on the calling thread.  The choice reads only
    the config, and each trial is a pure function of (config, t), so
    either way gives the same values.
    """
    if _expected_draws(config) > _CHUNK:
        return _share(lambda i: fn(trials[i]), len(trials), _CHUNK)
    return [fn(t) for t in trials]


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
    block size, and a count is the size of the stage it stands for.  In
    one of ``core_sets._share``'s items, a block's draws and keep-mask
    fill the item's phase and residue blocks in place.
    """
    p = size ** (-beta)
    rows = max(1, _CHUNK // size)
    blocks = []
    survivors = 0
    for lo in range(0, parents.size, rows):
        block = parents[lo : lo + rows]
        n = block.size * size
        scratch = _blocks(n)
        if scratch is None:
            keep = rng.random(n) < p
        else:
            draws, keep = scratch[1].view(np.float64)[:n], scratch[0].view(np.bool_)[:n]
            np.less(rng.random(out=draws), p, out=keep)
        if count:
            survivors += int(np.count_nonzero(keep))
            continue
        idx = keep.nonzero()[0]
        # A block of one parent c (every stage-1 block, where c = 0) needs
        # no gather: its children are c*size + idx.
        if block.size > 1:
            idx = block[idx // size] * size + idx % size
        elif block[0]:
            idx += block[0] * size
        blocks.append(idx)
    if count:
        return survivors
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
    finals = _draw_trials(config, functools.partial(_final_count, config), range(config.trials))
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

    The trials are drawn and scored in batches of whole trials, one
    ``equidist.orders`` call per batch, so that at most about ``_BATCH_CELLS``
    final-stage cells are held at once.  A batch takes as many trials as
    that bound holds at the expected M**(1 - beta) cells a trial.  Each
    trial is its own group of the call, so its alpha has the same bits in
    any batch.
    """
    M = config.resolution()
    batch = max(1, int(_BATCH_CELLS // M ** (1.0 - config.beta)))
    alphas = []
    for lo in range(0, config.trials, batch):
        alphas += _batch_alphas(config, range(lo, min(lo + batch, config.trials)))
    median = statistics.median(alphas) if alphas else None
    return OrderStats(1.0 - config.beta, median, tuple(alphas), config.trials - len(alphas), config.trials)


def _batch_alphas(config: RandomFractalConfig, trials: range) -> list[float]:
    """The order of each surviving trial of ``trials``: their final stages
    drawn by :func:`_draw_trials` and scored by one ``equidist.orders``
    call, a group per survivor.  The batch's stages are dropped when this
    returns, before the next batch is drawn."""
    # Each final stage is scored as the int64 array _refine returns: its
    # cells are sorted, distinct and below M by construction.  orders of no
    # groups builds no sweep, so an experiment whose trials all went
    # extinct is not refused at M < 16.
    finals = _draw_trials(config, lambda t: _refine(config, t)[-1], trials)
    return [est.alpha for est in orders([final for final in finals if final.size], config.resolution())]


def mu1_hat(cells: np.ndarray, N1: int, beta: float, us: Sequence) -> np.ndarray:
    """Transform of the reweighted stage-1 measure at every frequency in ``us``.

    ``cells`` are the white stage-1 cells of a trial, the int64 array
    ``_refine(config, t)[0]``.  The measure has density p**(-1) on their
    union (p = N_1**(-beta)), so each cell contributes its exact interval
    integral of e^{-2 pi i u x}.  At u = 0 this is white/(p*N_1); with no
    white cells the zero measure's transform (identically 0) is returned.
    Each u is read as the rational ``Fraction(u)``; the cell phases u*c/N_1
    are reduced exactly by :func:`exp_sums` over the lcm of the
    frequencies' denominators.
    """
    return _mu1_hats([cells], N1, beta, us)[0]


def _mu1_hats(stage1: Sequence[np.ndarray], N1: int, beta: float, us: Sequence) -> np.ndarray:
    """:func:`mu1_hat` of every trial's cells in ``stage1``, one row per
    trial, from one :func:`exp_sums` call over them all.  The frequencies
    are reduced once per call, for every trial of it.

    Each sum s is closed with its factor f and p with the bits of the
    scalar ``complex(s) * f / p``: CPython's complex product, written out
    on arrays, then ``core_sets._quotient``.
    """
    sizes = np.array([len(cells) for cells in stage1])
    white = sizes > 0
    if not white.any() or not len(us):
        return np.zeros((len(stage1), len(us)), dtype=complex)
    p = N1 ** (-beta)
    qs = [Fraction(u) for u in us]
    D = math.lcm(*(q.denominator for q in qs))
    s = exp_sums(stage1, N1 * D, [q.numerator * (D // q.denominator) for q in qs])
    # Scalar cmath per u: the spectrum files print this rounding.
    f = np.array(
        [0 if q == 0 else (1 - cmath.exp(-2j * math.pi * float(q) / N1)) / (2j * math.pi * float(q)) for q in qs],
        dtype=complex,
    )
    out = _quotient(s.real * f.real - s.imag * f.imag, s.real * f.imag + s.imag * f.real, p)
    out[:, [q == 0 for q in qs]] = (sizes / (p * N1))[:, None]
    out[~white] = 0
    return out


def lemma63_experiment(config: RandomFractalConfig, epsilon1: float, u_max: int) -> LemmaCheckReport:
    """Fraction of depth-1 trials with |mu1_hat(u)| < epsilon1 * u**((beta-1)/2)
    at every integer u in [2, u_max].

    The Lebesgue baseline vanishes at nonzero integers, so the checked
    difference is |mu1_hat| itself.  Requires u_max <= N_1.  Every trial is
    scored, extinct ones included: an empty trial has the zero transform,
    so it passes exactly when epsilon1 > 0.

    The trials are drawn and scored in batches of whole trials, one
    :func:`_mu1_hats` call per batch, so that the memory held does not grow
    with the trial count.  A batch takes as many trials as
    ``_LEMMA_BATCH_ENTRIES`` holds at the expected N_1**(1 - beta) cells and
    the u_max - 1 values a trial.  Each trial is its own group of the call,
    so its row has the same bits in any batch.
    """
    if config.depth != 1:
        raise ValueError("the single-stage check needs a depth-1 config")
    N1 = config.level_sizes[0]
    if not 2 <= u_max <= N1:
        raise ValueError("u_max must lie in [2, N_1]")
    us = range(2, u_max + 1)
    bounds = epsilon1 * np.arange(2, u_max + 1, dtype=float) ** ((config.beta - 1.0) / 2.0)
    batch = max(1, int(_LEMMA_BATCH_ENTRIES // (N1 ** (1.0 - config.beta) + len(us))))
    satisfied = 0
    for lo in range(0, config.trials, batch):
        trials = range(lo, min(lo + batch, config.trials))
        stage1 = _draw_trials(config, lambda t: _refine(config, t)[0], trials)
        vals = _mu1_hats(stage1, N1, config.beta, us)
        satisfied += int(np.count_nonzero(np.all(_moduli(vals) < bounds, axis=1)))
    return LemmaCheckReport(
        N1=N1,
        epsilon1=float(epsilon1),
        u_grid=f"integers 2..{u_max}",
        satisfied_fraction=satisfied / config.trials,
        trials=config.trials,
    )
