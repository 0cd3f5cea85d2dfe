"""Integer sets, sparse discrete Fourier transforms, Weyl sums, and the
shared decay-exponent fitting engine.

Conventions: an integer set lives below an explicit horizon N; its
normalized spectrum at frequency k is (1/N) * sum_{n in A} e^{-2 pi i k n/N}.
Spectral decay is summarized by the largest alpha such that
|value(m)| <= m**(-alpha/2) holds across every sampled frequency.

Everything here is a pure function of immutable inputs; per-frequency
evaluations can run concurrently and results never depend on evaluation
order.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

# Fitted decay exponents are clamped to [0, EXPONENT_CAP].
EXPONENT_CAP = 1.0
# Below this magnitude a spectral value is indistinguishable from the
# rounding noise of summing up to 1e6 unit-modulus terms in doubles.
ZERO_FLOOR = 1e-12

# Entries per block of exp_sum's int64 phases and of the random
# refinement's keep draws: full-range spectra of a few thousand members
# stay within tens of MB, and blocks stay large enough that numpy, not the
# block loop, sets the time.
_CHUNK = 1 << 16
# Largest denominator whose unit roots exp_sum tabulates: 2**20 complex
# doubles are 16 MB, and the cache below keeps at most two tables.  A table
# is built only for at least D phases, so it never costs more exps than it
# saves.
_TABLE_MAX = 1 << 20
_INT64_MAX = (1 << 63) - 1


def as_integers(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as Python ints; ``ValueError`` naming ``what`` unless each
    is a Python or numpy integer, so 1.7 is refused rather than cut to 1."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers") from exc


def require_increasing(values: Sequence[int], message: str) -> None:
    """Raise ``ValueError(message)`` unless the values are non-negative and
    strictly increasing."""
    if values and (values[0] < 0 or not all(map(operator.lt, values, islice(values, 1, None)))):
        raise ValueError(message)


@dataclass(frozen=True)
class IntegerSet:
    """Strictly increasing non-negative integers, all below ``horizon``."""

    elements: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", as_integers(self.elements, "elements"))
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        require_increasing(self.elements, "elements must be strictly increasing and non-negative")
        if self.elements and self.elements[-1] >= self.horizon:
            raise ValueError(f"elements must lie below the horizon {self.horizon}")

    @classmethod
    def from_elements(cls, elements: Iterable[int], horizon: int | None = None) -> "IntegerSet":
        elems = tuple(sorted(set(as_integers(elements, "elements"))))
        if horizon is None:
            horizon = elems[-1] + 1 if elems else 1
        return cls(elems, horizon)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def count_below(self, n: int) -> int:
        """|A intersect [0, n)| by binary search."""
        return bisect_left(self.elements, n)


@dataclass(frozen=True)
class DensityEstimate:
    """Least-squares growth exponent of a counting function over a grid."""

    exponent: float
    samples: tuple[tuple[int, int], ...]
    residual: float
    empty: bool = False


@dataclass(frozen=True)
class SpectrumSample:
    frequency: float
    value: complex


def fractional_density(A: IntegerSet, grid: Sequence[int]) -> DensityEstimate:
    """Fit count(N) ~ C * N**exponent over the checkpoint grid with
    :func:`density_fit`.  Checkpoints with zero count stay in ``samples``
    but carry no weight."""
    checkpoints = as_integers(grid, "grid")
    if len(checkpoints) < 2:
        raise ValueError("need at least 2 grid checkpoints")
    for a, b in zip(checkpoints, checkpoints[1:]):
        if b <= a:
            raise ValueError("grid must be strictly increasing")
    if checkpoints[0] < 1 or checkpoints[-1] > A.horizon:
        raise ValueError("grid checkpoints must lie in [1, horizon]")
    counts = [A.count_below(n) for n in checkpoints]
    samples = tuple(zip(checkpoints, counts))
    exponent, resid, empty = density_fit(samples)
    return DensityEstimate(exponent, samples, resid, empty)


def density_fit(samples: Sequence[tuple[int, int]]) -> tuple[float, float, bool]:
    """Growth exponent of (N, count) samples, its RMS misfit, and whether
    the fit was empty.

    The exponent is the slope of the least-squares fit of log count against
    log N over the positive counts, clamped to [0, 1].  Fewer than two
    positive counts give exponent 0 with the empty flag raised.
    """
    fit = [(n, c) for n, c in samples if c > 0]
    if len(fit) < 2:
        return 0.0, 0.0, True
    slope, resid = loglog_fit(fit)
    return min(1.0, max(0.0, slope)), resid, False


def loglog_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares line through (log x, log y) over positive (x, y) pairs:
    its slope and the RMS misfit of the logs around it."""
    x = np.log([p for p, _ in points])
    y = np.log([q for _, q in points])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))


def exp_sum(numerators: Sequence[int], denominator: int, freqs: Sequence[int]) -> np.ndarray:
    """sum_j e^{-2 pi i k a_j / D} for each integer k in ``freqs``.

    Every phase k*a_j is reduced mod D exactly before exponentiation, so the
    sum is exact in its phases at every size: in int64 blocks when all the
    products fit, in Python integers otherwise.  A residue r becomes the
    angle (-2 pi / D) * r on the int64 path and -2 pi * (r / D) on the
    other, and each row is summed by numpy.  On the int64 path a power-of-two
    D reduces the non-negative products with the mask D - 1, which gives the
    same residues as % D, and when D <= 2**20 and there are at least D
    phases, the residues are gathered from a cached table of the D unit
    roots e^{(-2 pi i / D) * r}, whose entries are bit-identical to
    exponentiating each residue.  The empty set sums to 0.
    """
    D = int(denominator)
    if D < 1:
        raise ValueError("denominator must be positive")
    out = np.zeros(len(freqs), dtype=complex)
    if len(numerators) == 0 or len(freqs) == 0:
        return out
    a, k = _reduce(numerators, D), _reduce(freqs, D)
    if a.dtype == np.int64 and k.dtype == np.int64 and int(a.max()) * int(k.max()) <= _INT64_MAX:
        table = _unit_roots(D) if D <= _TABLE_MAX and len(a) * len(k) >= D else None
        # The products are non-negative, so for D a power of two the mask
        # D - 1 gives the same residues as % D without a division.
        power_of_two = D & (D - 1) == 0
        rows = max(1, _CHUNK // len(a))
        for lo in range(0, len(k), rows):
            block = k[lo : lo + rows, None] * a[None, :]
            if power_of_two:
                block &= D - 1
            else:
                block %= D
            phases = np.exp((-2j * np.pi / D) * block) if table is None else np.take(table, block)
            out[lo : lo + rows] = phases.sum(axis=1)
        return out
    members = a.tolist()
    for i, kk in enumerate(k.tolist()):
        out[i] = np.exp(-2j * np.pi * np.array([kk * x % D / D for x in members])).sum()
    return out


@functools.lru_cache(maxsize=2)
def _unit_roots(D: int) -> np.ndarray:
    """Read-only e^{(-2 pi i / D) * r} for r = 0..D-1, by the same complex
    multiply and exp as exp_sum's untabulated blocks, so each entry is the
    same double."""
    table = np.exp((-2j * np.pi / D) * np.arange(D, dtype=np.int64))
    table.flags.writeable = False
    return table


def _reduce(values: Sequence[int], D: int) -> np.ndarray:
    """Values mod D: int64 when the values and D fit in int64, else an
    object array of Python integers."""
    arr = np.asarray(values)
    if arr.dtype == np.int64 and D <= _INT64_MAX:
        return arr % D
    return np.asarray([int(v) % D for v in values], dtype=object)


def dft_char(A: IntegerSet, freqs: Sequence[int]) -> list[SpectrumSample]:
    """Normalized transform (1/N) * sum_{n in A} e^{-2 pi i k n / N}.

    Sparse sum over the members only, so the cost is |A| per frequency.
    Phases are reduced to (k*n) mod N exactly by :func:`exp_sum` at every
    horizon, so integral phases contribute exactly 1.
    """
    N = A.horizon
    ks = as_integers(freqs, "freqs")
    for k in ks:
        if not 0 <= k < N:
            raise ValueError(f"frequency {k} outside [0, {N})")
    values = exp_sum(A.elements, N, ks)
    return [SpectrumSample(float(k), complex(v) / N) for k, v in zip(ks, values)]


def weyl_sum(points: Sequence[Fraction], m: int) -> complex:
    """Normalized exponential sum (1/d) * sum_j e^{-2 pi i x_j m}.

    The points are put over the lcm D of their denominators and each phase
    x_j * m is reduced modulo 1 exactly by :func:`exp_sum`, so points whose
    phases are all integral sum to exactly 1.
    """
    (m,) = as_integers([m], "m")
    if m == 0:
        raise ValueError("m = 0 is excluded")
    pts = [Fraction(p) for p in points]
    if not pts:
        raise ValueError("points must be nonempty")
    D = math.lcm(*(p.denominator for p in pts))
    total = exp_sum([p.numerator * (D // p.denominator) for p in pts], D, [m])[0]
    return complex(total) / len(pts)


def decay_exponent_fit(samples: Sequence[tuple[float, float]]) -> float:
    """Largest alpha such that magnitude <= m**(-alpha/2) across all samples.

    Bound fitting rather than slope regression: every sample (m, mag) above
    the zero floor implies alpha <= 2*(-log mag)/log m, and the minimum is
    reported, clamped to [0, EXPONENT_CAP].  Samples below ZERO_FLOOR are
    treated as exact zeros and skipped; if every sample is a zero the
    spectrum decays faster than any power and EXPONENT_CAP is returned.
    """
    pairs = [(float(m), float(mag)) for m, mag in samples]
    if len(pairs) < 4:
        raise ValueError("need at least 4 samples")
    for m, _ in pairs:
        if m < 2:
            raise ValueError("samples require m >= 2")
    implied = [2.0 * -math.log(mag) / math.log(m) for m, mag in pairs if mag >= ZERO_FLOOR]
    if not implied:
        return EXPONENT_CAP
    return min(EXPONENT_CAP, max(0.0, min(implied)))


def geometric_grid(lo: float, hi: float, per_octave: int = 16, *, integers: bool = False) -> list:
    """Geometric samples lo * 2**(j/per_octave) not exceeding hi.

    The endpoint hi appears only when it lies on the ladder itself; on
    grid-supported spectra a forced top sample would alias a low frequency.
    With ``integers=True`` samples are rounded and deduplicated, which keeps
    every integer at the low end of the range where spacing is below 1.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("lo and hi must be finite")
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    if per_octave < 1:
        raise ValueError("per_octave must be positive")
    steps = int(math.ceil(math.log2(hi / lo) * per_octave)) if hi > lo else 0
    vals = [lo * 2 ** (j / per_octave) for j in range(steps + 1)]
    if integers:
        return [v for v in sorted({int(round(v)) for v in vals}) if lo <= v <= hi]
    return sorted(v for v in set(vals) if v <= hi)
