"""Arithmetic-progression search in integer sets and exact-rational point
sets, the dyadic embedding that preserves progressions, grid-descent
recovery, and the density/decay hypothesis checker for 3-term progressions.

Searches enumerate (first term, difference) pairs against a hash index, so
membership tests are constant time and every comparison on point sets is
exact rational arithmetic; no float enters a membership decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core_sets import IntegerSet, as_integers, dft_char, fractional_density, geometric_grid


class APWitness(NamedTuple):
    """``length`` terms from ``start`` by ``difference``; :func:`_maximal_runs`
    builds each one with difference >= 1 and length >= 3."""

    start: int | Fraction
    difference: int | Fraction
    length: int

    def terms(self) -> list:
        return [self.start + j * self.difference for j in range(self.length)]


@dataclass(frozen=True)
class GridAP:
    stage: int
    indices: tuple[int, ...]


class SeparationError(ValueError):
    """No tested stage separates the points: distinct inputs collide at
    every scale up to k_max."""


@dataclass(frozen=True)
class HypothesisReport:
    alpha_hat: float
    beta: float
    constant: float
    density_ok: bool
    exponent_ok: bool
    bound_violations: tuple[int, ...]
    ap_found: bool
    failed: tuple[str, ...]


def find_ap_integers(A: IntegerSet, n: int, *, first_only: bool = False) -> list[APWitness]:
    """All maximal-run witnesses of length at least n, canonicalized.

    A witness (start, difference, length) is emitted only when
    start - difference is absent, so sub-progressions of a reported run are
    not re-reported; the length is the full run length.  ``first_only``
    stops at the first witness in (start, difference) order.
    """
    return _maximal_runs(A.elements, n, first_only)


def find_ap_points(points: Sequence[Fraction], n: int, *, first_only: bool = False) -> list[APWitness]:
    """Maximal-run witnesses among exact rational points.

    Pairwise (first, second) enumeration with a membership index on
    canonical reduced fractions; all comparisons are exact.
    """
    pts = sorted(Fraction(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    return _maximal_runs(pts, n, first_only)


def _maximal_runs(values: Sequence, n: int, first_only: bool) -> list[APWitness]:
    """Maximal-run witnesses of length at least n among sorted distinct
    values, in (start, difference) order.

    Each pair (x, y) proposes the difference d = y - x; it is skipped when
    x - d is a member (x is not a run start), and the scan over y stops
    once n terms from x would pass the largest value.
    """
    if n < 3:
        raise ValueError("progression length must be at least 3")
    index = set(values)
    out: list[APWitness] = []
    for i, x in enumerate(values):
        span = values[-1] - x
        for y in values[i + 1 :]:
            d = y - x
            if d * (n - 1) > span:
                break
            if x - d in index:
                continue
            length = 2
            term = y + d
            while term in index:
                length += 1
                term += d
            if length >= n:
                out.append(APWitness(x, d, length))
                if first_only:
                    return out
    return out


def dyadic_embed(A: IntegerSet, exponents: Sequence[int], depth: int) -> list[Fraction]:
    """Map a to a * sum_{k <= depth} 2^{-N_k}: affine with positive slope.

    Progressions map to progressions with the difference scaled by the
    slope, and non-progressions stay non-progressions.  Requires
    2^{N_1} > max(A) so images stay in [0, 1) and distinct.
    """
    exps = as_integers(exponents, "exponents")
    if depth < 1 or depth > len(exps):
        raise ValueError("depth must select a prefix of the exponents")
    exps = exps[:depth]
    for a, b in zip(exps, exps[1:]):
        if b <= a:
            raise ValueError("exponents must be strictly increasing")
    if exps[0] < 1:
        raise ValueError("exponents must be positive")
    if A.elements and A.elements[-1] >= 2 ** exps[0]:
        raise ValueError("2**exponents[0] must exceed every element")
    slope = sum(Fraction(1, 2**e) for e in exps)
    return [a * slope for a in A.elements]


def grid_ap_descent(points: Sequence[Fraction], n: int, k_max: int) -> GridAP | None:
    """Scan dyadic stages k_max, k_max-1, ... while floor(x * 2**k) stays
    pairwise distinct; return the finest stage whose indices contain an
    n-term integer progression, or None.

    Stages where the points collide are never searched (a collision at k
    persists at every coarser stage, so the scan stops there).  If even
    k_max does not separate the points, SeparationError is raised to keep
    "never separated" distinct from "no progression found".
    """
    pts = [Fraction(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    if n < 3:
        raise ValueError("progression length must be at least 3")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    separated = False
    for k in range(k_max, -1, -1):
        indices = sorted(math.floor(p * 2**k) for p in pts)
        if len(set(indices)) != len(indices):
            break
        separated = True
        # The smallest start of any n-term progression is a run start, so
        # the first maximal-run witness is the first n-term progression.
        hit = _maximal_runs(indices, n, first_only=True)
        if hit:
            return GridAP(k, tuple(hit[0].terms()[:n]))
    if not separated:
        raise SeparationError(f"points are not separated at any stage <= {k_max}")
    return None


def check_thm32_hypotheses(A: IntegerSet, beta: float, C: float) -> HypothesisReport:
    """Test the sufficient conditions for a 3-term progression and report
    whether the conclusion held regardless.

    Conditions: fitted density exponent above 1/2, beta > 2 - 2*alpha_hat,
    and |spectrum(k)| <= C * (k*N)**(-beta/2) across the frequency sweep.
    The density is fitted at the powers of 2 below N and at N itself; the
    sweep is geometric at 8 per octave over [1, N-1].  The 3-term search
    runs either way.
    """
    if not 2 / 3 < beta <= 1:
        raise ValueError("beta must lie in (2/3, 1]")
    density_grid = [2**j for j in range(1, max(2, A.horizon.bit_length() - 1)) if 2**j < A.horizon]
    dens = fractional_density(A, density_grid + [A.horizon])
    alpha_hat = dens.exponent
    density_ok = alpha_hat > 0.5
    exponent_ok = beta > 2 - 2 * alpha_hat
    spectrum = dft_char(A, geometric_grid(1, A.horizon - 1, 8, integers=True))
    violations = tuple(
        int(s.frequency)
        for s in spectrum
        if s.frequency >= 1 and abs(s.value) > C * (s.frequency * A.horizon) ** (-beta / 2) + 1e-15
    )
    ap_found = bool(find_ap_integers(A, 3, first_only=True))
    failed = []
    if not density_ok:
        failed.append("density")
    if not exponent_ok:
        failed.append("exponent-relation")
    if violations:
        failed.append("decay-bound")
    return HypothesisReport(
        alpha_hat=alpha_hat,
        beta=float(beta),
        constant=float(C),
        density_ok=density_ok,
        exponent_ok=exponent_ok,
        bound_violations=violations,
        ap_found=ap_found,
        failed=tuple(failed),
    )
