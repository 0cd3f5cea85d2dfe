"""Nested interval systems on [0,1] driven by integer digit sets.

A plan fixes, per level k, a branching factor N_k, a digit set
A_k within [0, N_k), and a padding ratio eta_k in (0, 1].  Writing
M_k = N_1 * ... * N_k, the stage-k set keeps one interval per digit word
(a_1, ..., a_k) with exact left endpoint

    x = sum_{j <= k} (eta_1 ... eta_{j-1}) * a_j / M_j

and exact length L_k = (eta_1 ... eta_k) / M_k.  Children of a stage
interval sit inside it because eta <= 1; siblings are disjoint with gaps
whenever eta < 1.  Every endpoint and the length are integers over one
stage denominator D, so nesting and disjointness are integer comparisons
rather than float checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .core_sets import IntegerSet, as_integers, require_increasing

# Denominators grow like M_k times the eta denominators; the cap keeps
# endpoint numerators within a few machine words.
DEPTH_CAP = 12
# Default uniform bounds on the normalized digit counts |A_k| / N_k**beta.
C_BOUNDS = (Fraction(1, 4), Fraction(4))


def default_eta(level: int) -> Fraction:
    """1 - 1/(level+1)**2: padding that shrinks toward 1 up the levels."""
    return Fraction(level * (level + 2), (level + 1) ** 2)


@dataclass(frozen=True)
class Level:
    size: int
    digits: tuple[int, ...]
    eta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "digits", as_integers(self.digits, "digits"))
        object.__setattr__(self, "eta", Fraction(self.eta))
        if self.size < 1:
            raise ValueError("level size must be positive")
        if not self.digits:
            raise ValueError("digit set must be nonempty")
        require_increasing(self.digits, "digits must be strictly increasing and non-negative")
        if self.digits[-1] >= self.size:
            raise ValueError("digits must lie below the level size")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")


@dataclass(frozen=True)
class LevelPlan:
    levels: tuple[Level, ...]
    beta: float
    c_bounds: tuple[Fraction, Fraction] = C_BOUNDS

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("plan needs at least one level")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        lower, upper = (Fraction(b) for b in self.c_bounds)
        object.__setattr__(self, "c_bounds", (lower, upper))
        if lower <= 0 or upper <= lower:
            raise ValueError("c_bounds must be positive with lower < upper")
        for k in range(1, len(self.levels) + 1):
            c = self.c_value(k)
            if not float(lower) <= c <= float(upper):
                raise ValueError(f"level {k}: c = {c:.6g} outside bounds ({float(lower):g}, {float(upper):g})")
        # Prefix products M_0..M_depth and eta_0..eta_depth, built once.  They
        # are plain attributes, not fields, so equality and hashing still see
        # only the levels, beta and c_bounds.
        sizes = (level.size for level in self.levels)
        etas = (level.eta for level in self.levels)
        object.__setattr__(self, "_M", tuple(accumulate(sizes, operator.mul, initial=1)))
        object.__setattr__(self, "_eta", tuple(accumulate(etas, operator.mul, initial=Fraction(1))))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def M(self, k: int) -> int:
        """N_1 * ... * N_k (1 when k = 0), for 0 <= k <= depth."""
        return self._M[k]

    def eta_product(self, k: int) -> Fraction:
        """eta_1 * ... * eta_k (1 when k = 0), for 0 <= k <= depth."""
        return self._eta[k]

    def interval_length(self, k: int) -> Fraction:
        return self.eta_product(k) / self.M(k)

    def digit_count(self, k: int) -> int:
        return len(self.levels[k - 1].digits)

    def c_value(self, k: int) -> float:
        """Normalized digit count |A_k| / N_k**beta at level k."""
        level = self.levels[k - 1]
        return len(level.digits) / level.size**self.beta


@dataclass(frozen=True)
class CantorStage:
    """Stage-``depth`` intervals [n/D, (n + length)/D), one per sorted
    numerator n, all over the one denominator D."""

    depth: int
    numerators: tuple[int, ...]
    length: int
    denominator: int

    @property
    def left_endpoints(self) -> tuple[Fraction, ...]:
        """The left endpoints n/D as exact rationals (a read-only view)."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def interval_length(self) -> Fraction:
        return Fraction(self.length, self.denominator)


def make_plan(
    A: IntegerSet,
    level_horizons: Sequence[int],
    beta: float,
    *,
    c_bounds: tuple[Fraction, Fraction] = C_BOUNDS,
    unit_eta: bool = False,
) -> LevelPlan:
    """Plan whose level-k digits are the prefix A intersect [0, N_k).

    Horizons may repeat (the self-similar case) but may not decrease.  A
    level with an empty prefix, or whose normalized count |A_k|/N_k**beta
    leaves ``c_bounds``, rejects the plan naming the offending level.
    Every level's eta is :func:`default_eta`, or 1 (no padding) under
    ``unit_eta``.
    """
    horizons = as_integers(level_horizons, "level_horizons")
    if not horizons:
        raise ValueError("need at least one level horizon")
    for a, b in zip(horizons, horizons[1:]):
        if b < a:
            raise ValueError("level horizons must not decrease")
    levels = []
    for k, N in enumerate(horizons, 1):
        digits = A.elements[: A.count_below(N)]
        if not digits:
            raise ValueError(f"level {k}: empty digit set below {N}")
        levels.append(Level(N, digits, Fraction(1) if unit_eta else default_eta(k)))
    return LevelPlan(tuple(levels), float(beta), c_bounds)


def ternary_plan(depth: int, *, unit_eta: bool = False) -> LevelPlan:
    """Middle-thirds plan: N = 3, digits {0, 2} at every level, beta =
    log 2 / log 3."""
    levels = tuple(
        Level(3, (0, 2), Fraction(1) if unit_eta else default_eta(k)) for k in range(1, depth + 1)
    )
    return LevelPlan(levels, math.log(2) / math.log(3))


def build_stage(plan: LevelPlan, depth: int) -> CantorStage:
    """All stage-``depth`` left endpoints, sorted, with the exact length.

    Depth 0 is the single interval [0, 1).  The endpoint count is the
    product of the digit-set sizes through ``depth``.  D is the lcm of the
    reduced denominators of the level coefficients eta_1...eta_{j-1} / M_j
    and of the length, so every endpoint is a sum of integer terms c_j * a
    over D, exact in Python integers.
    """
    if not 0 <= depth <= plan.depth:
        raise ValueError(f"depth {depth} exceeds plan depth {plan.depth}")
    if depth > DEPTH_CAP:
        raise ValueError(f"depth {depth} exceeds the cap {DEPTH_CAP}")
    # Level j adds eta_1...eta_{j-1} * a / M_j; the length is eta_1...eta_depth / M_depth.
    ratios = [(plan.eta_product(j - 1), plan.M(j)) for j in range(1, depth + 1)]
    ratios.append((plan.eta_product(depth), plan.M(depth)))
    D = math.lcm(*(eta.denominator * M // math.gcd(eta.numerator, M) for eta, M in ratios))
    *coeffs, length = (eta.numerator * D // (eta.denominator * M) for eta, M in ratios)
    numerators = [0]
    for c, level in zip(coeffs, plan.levels):
        terms = [c * a for a in level.digits]
        numerators = [n + t for n in numerators for t in terms]
    numerators.sort()
    return CantorStage(depth, tuple(numerators), length, D)


def box_dimension(plan: LevelPlan, max_depth: int) -> float:
    """log(prod d_j) / log(M_k) at k = max_depth.

    Counts covering cells at scale 1/M_k; the bounded eta-product
    correction is dropped deliberately, which makes plans with identical
    levels exact at every depth.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    if max_depth > plan.depth:
        raise ValueError(f"max_depth {max_depth} exceeds plan depth {plan.depth}")
    cells = math.prod(len(level.digits) for level in plan.levels[:max_depth])
    return math.log(cells) / math.log(plan.M(max_depth))
