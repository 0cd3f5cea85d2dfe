"""Arithmetic-progression search in integer sets and exact-rational point
sets, the dyadic embedding that preserves progressions, grid-descent
recovery, and the density/decay hypothesis checker for 3-term progressions.

One search serves every caller: the (first term, difference) pairs of the
sorted values are scanned in numpy blocks.  Membership is an exact integer
test, a bool-table gather or a ``searchsorted`` and ``==``, on int64 where
no term can overflow and on Python ints otherwise.  Point sets are
searched as integers over the lcm of their denominators, so no float
enters a membership decision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .core_sets import _CHUNK, _INT64_MAX, IntegerSet, as_integers, dft_values, fractional_density, geometric_grid


class APWitness(NamedTuple):
    """``length`` terms from ``start`` by ``difference``; the search yields
    each one with difference >= 1 and length >= 3."""

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
    return list(map(tuple.__new__, repeat(APWitness), _run_rows(A.elements, n, first_only)))


def find_ap_points(points: Sequence[Fraction], n: int, *, first_only: bool = False) -> list[APWitness]:
    """Maximal-run witnesses among exact rational points.

    The sorted points are scaled by the lcm L of their denominators and
    searched as integers; each witness starts at its own input point and
    its difference is the exact ``Fraction(d, L)``.  Every scaled value
    has about log2(L) bits, so the time per pair and the memory of the
    scaled values grow with the bit length of L, which with pairwise
    coprime denominators grows with the number of points.
    """
    pts = sorted(Fraction(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    L = math.lcm(*(p.denominator for p in pts))
    scaled = [p.numerator * (L // p.denominator) for p in pts]
    return [
        APWitness(pts[i], Fraction(d, L), k)
        for starts, diffs, lengths in _run_blocks(scaled, n, first_only)
        for i, d, k in zip(starts.tolist(), diffs.tolist(), lengths.tolist())
    ]


def _run_rows(values: Sequence[int], n: int, first_only: bool) -> Iterator[tuple[int, int, int]]:
    """Maximal-run witnesses of length at least n among sorted distinct
    integers as plain (start, difference, length) rows, in (start,
    difference) order; each start is the input's own int object.  See
    :func:`_run_blocks`."""
    for starts, diffs, lengths in _run_blocks(values, n, first_only):
        yield from zip(map(values.__getitem__, starts.tolist()), diffs.tolist(), lengths.tolist())


def _run_blocks(values: Sequence[int], n: int, first_only: bool) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Witness columns (start indices into ``values``, differences,
    lengths) of the maximal runs of length at least n among sorted
    distinct integers, block by block in (start, difference) order.

    Each pair x < y proposes d = y - x.  Its partners y are those with
    y*(n-1) <= top + x*(n-2), that is n terms from x stay within the
    largest value.  A pair is skipped when x - d is a member (x is not a
    run start); the surviving runs are extended together, each dropped
    once its next term is absent.  Starts are taken in consecutive runs so
    that a block holds at most ``_CHUNK // 8`` pairs (and at least one
    start); with ``first_only`` blocks grow from 64 pairs and the scan
    stops at the first witness.  Values are searched as int64 only while
    no term or bound computed from them can pass int64; otherwise the same
    code runs on Python ints in object arrays, in blocks cut to about the
    bytes of an int64 block by the size of the largest term.
    """
    if n < 3:
        raise ValueError("progression length must be at least 3")
    size = len(values)
    if size < 3:
        return
    exact = max(-values[0], values[-1]) <= _INT64_MAX // (2 * n)
    v = np.array(values, dtype=np.int64 if exact else object)
    span = values[-1] - values[0]
    if exact and span <= 8 * size:
        # Every query lies in [v[0] - span, v[-1] + span]: each d <= span,
        # so x - d >= v[0] - span, and a run grows only from a member, by d.
        # A bool table over that reach, at most three times the bytes of v,
        # answers each query with one gather.
        low = values[0] - span
        table = np.zeros(3 * span + 1, dtype=bool)
        table[v - low] = True

        def member(q: np.ndarray) -> np.ndarray:
            return table[q - low]

    else:

        def member(q: np.ndarray) -> np.ndarray:
            i = np.minimum(np.searchsorted(v, q), size - 1)
            return v[i] == q

    pairs = np.searchsorted(v * (n - 1), v[-1] + v * (n - 2), side="right") - np.arange(1, size + 1)
    ends = np.cumsum(pairs)
    # The partner of a start's k-th pair (k counted over all pairs) is k + shift.
    shift = np.arange(1, size + 1) - (ends - pairs)
    # About eight pair-length arrays are live at once, so a block of at
    # most cap pairs holds some _CHUNK int64 entries in all.  An object
    # entry is a pointer and an int as large as the terms (up to twice the
    # largest magnitude), so object blocks hold as many bytes, not pairs.
    cap = _CHUNK // 8 if exact else max(1, _CHUNK // (8 + sys.getsizeof(2 * max(-values[0], values[-1]))))
    limit = min(64, cap) if first_only else cap
    lo = 0
    while lo < size:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + limit, side="right")))
        counts = pairs[lo:hi]
        xi = np.repeat(np.arange(lo, hi), counts)
        yi = np.repeat(shift[lo:hi], counts)
        yi += np.arange(done, done + xi.size)
        x = v[xi]
        d = v[yi] - x
        x -= d
        keep = ~member(x)
        xi, d = xi[keep], d[keep]
        terms = v[yi[keep]]
        terms += d
        lengths = np.full(xi.size, 2)
        alive = np.arange(xi.size)
        while alive.size:
            hit = member(terms)
            alive = alive[hit]
            lengths[alive] += 1
            terms = terms[hit]
            terms += d[alive]
        found = np.flatnonzero(lengths >= n)
        if first_only:
            found = found[:1]
        if found.size:
            yield xi[found], d[found], lengths[found]
            if first_only:
                return
        lo = hi
        limit = min(2 * limit, cap)


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
        hit = next(_run_rows(indices, n, True), None)
        if hit:
            start, d, _ = hit
            return GridAP(k, tuple(start + j * d for j in range(n)))
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
    ks = geometric_grid(1, A.horizon - 1, 8, integers=True)
    values = dft_values(A, ks)
    # np.hypot of the parts is the float complex abs returns.
    moduli = np.hypot(values.real, values.imag).tolist()
    violations = tuple(
        int(f) for f, mag in zip(map(float, ks), moduli) if f >= 1 and mag > C * (f * A.horizon) ** (-beta / 2) + 1e-15
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
