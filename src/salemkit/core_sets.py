"""Integer sets, sparse discrete Fourier transforms, Weyl sums, and the
shared decay-exponent fitting engine.

Conventions: an integer set lives below an explicit horizon N; its
normalized spectrum at frequency k is (1/N) * sum_{n in A} e^{-2 pi i k n/N}.
Spectral decay is summarized by the largest alpha such that
|value(m)| <= m**(-alpha/2) holds across every sampled frequency.

Everything here is a pure function of immutable inputs; per-frequency
evaluations can run concurrently and results never depend on evaluation
order.  The module state only picks where a value is computed, never the
value: one work-sharing helper, ``_share``, runs the items of a call
(exp_sums' slabs of groups and frequency rows, the random experiments'
trials of more than one block of draws) on the calling thread and on
threads that a call of more than one item starts and joins before it
returns.  The threads are the CPUs the process may run on, up to 4,
the calling thread included; there is no setting, and a process started
under ``taskset -c 0`` runs every item on its calling thread.  The calling thread allocates every buffer that
the other threads fill.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# Fitted decay exponents are clamped to [0, EXPONENT_CAP].
EXPONENT_CAP = 1.0
# Below this magnitude a spectral value is indistinguishable from the
# rounding noise of summing up to 1e6 unit-modulus terms in doubles.
ZERO_FLOOR = 1e-12

# Entries per block of exp_sums' int64 phases and of the random
# refinement's keep draws: full-range spectra of a few thousand members
# stay within tens of MB, and blocks stay large enough that numpy, not the
# block loop, sets the time.
_CHUNK = 1 << 16
# Largest denominator whose unit roots exp_sums tabulates: 2**20 complex
# doubles are 16 MB, and the cache below keeps at most two tables.  A call
# builds or reads the table only when it asks for at least D phases itself,
# so the table never costs much more exps than it saves.
_TABLE_MAX = 1 << 20
_INT64_MAX = (1 << 63) - 1


# Most threads that run _share's items, the calling thread included: the
# CPUs this process may run on, as taskset sets them, up to 4.
try:
    _WORKERS = min(4, len(os.sched_getaffinity(0)))
except AttributeError:  # no sched_getaffinity outside Linux
    _WORKERS = min(4, os.cpu_count() or 1)
# While a thread runs _share's items, ``_local.blocks`` is the residue
# and phase block pair that it fills in place.
_local = threading.local()
# Held while the unit-root table cache is asked, so that two threads which
# reach a new table together build it once.
_table_lock = threading.Lock()


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


class SpectrumSample(NamedTuple):
    """One row of a spectrum: a frequency and the complex value there, as
    :func:`dft_char` and ``measures.decay_check`` give them.  A tuple, so
    a list of rows splits into the two columns that
    ``formats.spectrum_csv`` takes by ``zip``."""

    frequency: float
    value: complex


@dataclass(frozen=True)
class NApproximation:
    """The cells [j/N, (j+1)/N) of the grid of size N that meet a target
    set, as strictly increasing indices below N."""

    N: int
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", as_integers(self.cells, "cells"))
        if self.N < 1:
            raise ValueError("N must be positive")
        require_increasing(self.cells, "cells must be strictly increasing and non-negative")
        if self.cells and self.cells[-1] >= self.N:
            raise ValueError("cells must lie below N")


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
    its slope and the RMS misfit of the logs around it.

    Each log is taken of the coordinate's correctly rounded double, the
    value numpy's int64 and uint64 casts give below 2**64, so an int past
    2**64 is read like any other; one past the double range raises
    ``ValueError``."""
    try:
        x = np.log([float(p) for p, _ in points])
        y = np.log([float(q) for _, q in points])
    except OverflowError as exc:
        raise ValueError("log-log fit coordinates must lie within the double range") from exc
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))


def exp_sum(numerators: Sequence[int], denominator: int, freqs: Sequence[int]) -> np.ndarray:
    """sum_j e^{-2 pi i k a_j / D} for each integer k in ``freqs``: the one
    row of :func:`exp_sums` over the single group ``numerators``."""
    return exp_sums([numerators], denominator, freqs)[0]


def exp_sums(groups: Sequence[Sequence[int]], denominator: int, freqs: Sequence[int]) -> np.ndarray:
    """sum_{a in g} e^{-2 pi i k a / D} for each group g of ``groups`` and
    each integer k in ``freqs``, as a (len(groups), len(freqs)) array.

    Every phase k*a is reduced mod D exactly before exponentiation, so the
    sum is exact in its phases at every size.  Each group takes the path it
    would take alone: int64 blocks when its members, the frequencies and
    all their products fit, whatever integer or object array or sequence
    holds them, Python integers otherwise, one group at a time.  A residue
    r becomes the angle (-2 pi / D) * r on the int64 path and -2 pi * (r / D)
    on the other, and each group's row is summed by numpy.
    On the int64 path a power-of-two D reduces the non-negative products
    with the mask D - 1, which gives the same residues as % D.  When
    D <= 2**20 and this call asks for at least D phases on the int64 path,
    the residues are gathered from a cached table of the D unit roots
    e^{(-2 pi i / D) * r}.  Its entries are bit-identical to exponentiating
    each residue, so the path never moves a bit, and it depends only on the
    call's own arguments.

    The int64 path cuts its groups into slabs of at most 2**16 entries or
    one row (:func:`_slabs`): runs of whole groups with every frequency
    row, their members joined side by side, and a group too wide for that,
    a run of its own used in place and cut by rows.  It sums them through
    :func:`_share`: the calling thread and up to W - 1 threads started for
    the call, W being the CPUs the process may run on
    (``os.sched_getaffinity``) up to 4, each take the next slab until none
    is left, so a thread the host runs slowly takes fewer.  A call of one
    slab starts no thread.
    Each thread fills one residue block and one phase block in place for
    every slab it takes, allocated by the calling thread.  Each group's
    sums are those of its own columns of the block, in the order numpy sums
    one group alone, so a group's row is the same bits in any grouping, and
    whichever thread takes its slab.  An empty group, and every group when
    there are no frequencies, sums to 0.
    """
    D = int(denominator)
    if D < 1:
        raise ValueError("denominator must be positive")
    out = np.zeros((len(groups), len(freqs)), dtype=complex)
    if len(freqs) == 0:
        return out
    k = _reduce(freqs, D)
    # Members up to this bound have products with every frequency in int64.
    fit = _INT64_MAX // max(int(k.max()), 1)
    narrow: list[tuple[int, np.ndarray]] = []
    # Groups summed in Python integers, as they would be alone.
    wide: list[tuple[int, np.ndarray]] = []
    for i, g in enumerate(groups):
        if len(g):
            m = _reduce(g, D)
            (narrow if m.dtype == k.dtype == np.int64 and m.max() <= fit else wide).append((i, m))
    if narrow:
        table = None
        if D <= _TABLE_MAX and sum(len(m) for _, m in narrow) * len(k) >= D:
            with _table_lock:
                table = _unit_roots(D)
        slabs = _slabs(narrow, len(k))

        def slab(j: int) -> None:
            run, a, lo, hi = slabs[j]
            _slab_sums(a, k[lo:hi], D, table, run, out[:, lo:hi])

        _share(slab, len(slabs), max((min(hi, len(k)) - lo) * len(a) for _, a, lo, hi in slabs))
    ks = k.tolist()
    for i, members in wide:
        group = members.tolist()
        for j, kk in enumerate(ks):
            out[i, j] = np.exp(-2j * np.pi * np.array([kk * x % D / D for x in group])).sum()
    return out


def _slabs(groups: list[tuple[int, np.ndarray]], rows: int) -> list[tuple[list, np.ndarray, int, int]]:
    """exp_sums' slabs (run, a, lo, hi): the frequency rows lo:hi of a run
    of groups (g, members), whose members lie side by side in ``a``.  A run
    takes the next group while its members times ``rows`` stay within 2**16
    entries, so it is one slab, and is joined into one array by the calling
    thread.  A group wider than that is a run of its own, used in place,
    and its rows are cut into slabs of at most 2**16 entries or one row."""
    cap = _CHUNK // rows
    runs: list[list[tuple[int, np.ndarray]]] = []
    width = 0
    for group in groups:
        if runs and width + len(group[1]) <= cap:
            runs[-1].append(group)
            width += len(group[1])
        else:
            runs.append([group])
            width = len(group[1])
    slabs = []
    for run in runs:
        a = run[0][1] if len(run) == 1 else np.concatenate([m for _, m in run])
        step = max(1, _CHUNK // len(a))
        slabs += [(run, a, lo, lo + step) for lo in range(0, rows, step)]
    return slabs


def _slab_sums(
    a: np.ndarray, ks: np.ndarray, D: int, table: np.ndarray | None, run: list[tuple[int, np.ndarray]], out: np.ndarray
) -> None:
    """Write exp_sums' sums of the rows ``ks`` into ``out``: for each group
    (g, members) of ``run``, whose members lie side by side in ``a``, the
    sums over its columns into row g, filling this thread's residue and
    phase blocks in place.  Only numpy runs here, and it releases the GIL."""
    shape = (len(ks), len(a))
    residues, phases = _blocks(shape[0] * shape[1])
    block, p = residues.reshape(shape), phases.reshape(shape)
    np.multiply(ks[:, None], a[None, :], out=block)
    # The products are non-negative, so for D a power of two the mask
    # D - 1 gives the same residues as % D without a division.
    if D & (D - 1) == 0:
        block &= D - 1
    else:
        block %= D
    if table is None:
        # Cast into p first: casting inside the multiply would take
        # a 128 KiB buffer.  The product is the same complex multiply.
        p[...] = block
        np.multiply(-2j * np.pi / D, p, out=p)
        np.exp(p, out=p)
    else:
        # Residues lie in [0, D), so "wrap" never wraps; unlike
        # "raise" it lets take write into p without a buffer.
        np.take(table, block, out=p, mode="wrap")
    lo = 0
    for g, members in run:
        p[:, lo : lo + len(members)].sum(axis=1, out=out[g])
        lo += len(members)


def _share(fn: Callable[[int], object], n: int, entries: int) -> list:
    """[fn(0), ..., fn(n - 1)], run on the calling thread and up to W - 1
    threads started for this call, each taking the next item from one
    iterator under a lock; every thread has joined when the call returns.

    Each thread runs its items with a residue block (int64) and a phase
    block (complex) of ``entries`` entries, which :func:`_blocks` gives
    it.  The calling thread allocates every pair: a started thread's freed
    blocks would stay in its own malloc arena.  One item, or one CPU,
    starts no thread.  An item is worth a thread only when numpy, which
    releases the GIL, does most of its work: exp_sums' slabs of up to
    2**16 phases, and random trials whose draws fill more than one block
    on average.  Smaller trials are mostly GIL-held Python, so two threads
    slow each other down, and ``randfrac`` draws them on its calling
    thread instead.  After an item raises, no thread takes another, and
    the first exception is raised once every thread has joined.
    """
    threads = 1 if n < 2 else min(_WORKERS, n)
    results = [None] * n
    items = iter(range(n))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain(blocks: tuple[np.ndarray, np.ndarray]) -> None:
        outer = getattr(_local, "blocks", None)
        _local.blocks = blocks
        try:
            while True:
                with lock:
                    i = None if errors else next(items, None)
                if i is None:
                    return
                results[i] = fn(i)
        except BaseException as exc:
            with lock:
                errors.append(exc)
        finally:
            _local.blocks = outer

    pairs = [(np.empty(entries, dtype=np.int64), np.empty(entries, dtype=complex)) for _ in range(threads)]
    others = [threading.Thread(target=drain, args=(pair,), name="share") for pair in pairs[1:]]
    for thread in others:
        thread.start()
    drain(pairs[0])
    for thread in others:
        thread.join()
    if errors:
        # Raised from the list, not from a name: the traceback holds this
        # frame and the items' frames, so neither may hold the exception.
        del errors[1:]
        raise errors.pop()
    return results


def _blocks(entries: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The first ``entries`` entries of this thread's residue and phase
    blocks while it runs :func:`_share`'s items, or None outside them or
    when the blocks are smaller."""
    pair = getattr(_local, "blocks", None)
    if pair is None or len(pair[0]) < entries:
        return None
    return pair[0][:entries], pair[1][:entries]


@functools.lru_cache(maxsize=2)
def _unit_roots(D: int) -> np.ndarray:
    """Read-only e^{(-2 pi i / D) * r} for r = 0..D-1, by the same complex
    multiply and exp as exp_sums' untabulated blocks, so each entry is the
    same double.  Built in place, so the table is the only D-sized buffer."""
    table = np.arange(D, dtype=complex)
    table *= -2j * np.pi / D
    np.exp(table, out=table)
    table.flags.writeable = False
    return table


def _reduce(values: Sequence[int], D: int) -> np.ndarray:
    """Values mod D: int64 when D and the values fit in int64, whatever
    integer or object array or sequence holds them, else an object array
    of Python integers.  An int64 array already in [0, D) is returned as it
    is, without a copy."""
    arr = np.asarray(values)
    if D <= _INT64_MAX and arr.dtype != np.int64 and arr.dtype.kind in "iuO":
        try:
            # A uint64 past int64 would wrap; a Python int past it raises.
            if arr.dtype.kind != "u" or arr.max(initial=0) <= _INT64_MAX:
                arr = arr.astype(np.int64)
        except OverflowError:
            pass
    if arr.dtype == np.int64 and D <= _INT64_MAX:
        return arr if arr.min() >= 0 and arr.max() < D else arr % D
    return np.asarray([int(v) % D for v in values], dtype=object)


def dft_values(A: IntegerSet, freqs: Sequence[int]) -> np.ndarray:
    """Normalized transform (1/N) * sum_{n in A} e^{-2 pi i k n / N} at
    each integer frequency k of ``freqs``, as one complex array: the value
    column of the spectrum whose frequency column is ``freqs``.

    Sparse sum over the members only, so the cost is |A| per frequency.
    Phases are reduced to (k*n) mod N exactly by :func:`exp_sum` at every
    horizon, so integral phases contribute exactly 1.  Each sum s is
    normalized as the scalar ``complex(s) / N`` is: CPython divides by the
    complex (float(N), 0.0), which gives the parts (re + im*0.0) / N and
    (im - re*0.0) / N, written out here on the arrays of parts.  A
    horizon past the double range has no float(N) and raises
    ``ValueError`` before any sum is taken.
    """
    N = A.horizon
    ks = as_integers(freqs, "freqs")
    if not ks:
        return np.zeros(0, dtype=complex)
    if min(ks) < 0 or max(ks) >= N:
        k = next(k for k in ks if not 0 <= k < N)
        raise ValueError(f"frequency {k} outside [0, {N})")
    try:
        n = float(N)
    except OverflowError as exc:
        raise ValueError("the horizon must lie within the double range") from exc
    values = exp_sum(A.elements, N, ks)
    re, im = values.real, values.imag
    values.real, values.imag = (re + im * 0.0) / n, (im - re * 0.0) / n
    return values


def dft_char(A: IntegerSet, freqs: Sequence[int]) -> list[SpectrumSample]:
    """:func:`dft_values` as rows: one :class:`SpectrumSample` (float(k),
    value) per frequency k, built from the ``tolist`` columns."""
    ks = as_integers(freqs, "freqs")
    return list(map(SpectrumSample, map(float, ks), dft_values(A, ks).tolist()))


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

    The integer grid evaluates only the sparse tail of the ladder.  Step j
    to j+1 is lo * 2**(j/per_octave) * (2**(1/per_octave) - 1) long, which
    grows with j; while it is at most 1/2, consecutive samples differ by
    less than 1, so their roundings differ by at most 1 and hit every
    integer between round(lo) and the rounding of the first sample past
    that prefix.  The prefix is that range, and the tail is rounded from
    the same floats as before, so the grid is the one the whole ladder
    rounds to.  The bound 1/2 leaves room for the rounding of the index
    where the prefix ends.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("lo and hi must be finite")
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    if per_octave < 1:
        raise ValueError("per_octave must be positive")
    steps = int(math.ceil(math.log2(hi / lo) * per_octave)) if hi > lo else 0
    if not integers:
        vals = [lo * 2 ** (j / per_octave) for j in range(steps + 1)]
        return sorted(v for v in set(vals) if v <= hi)
    # Steps j -> j+1 with j < first are at most 1/2 long.
    dense = per_octave * (math.log2(0.5 / math.expm1(math.log(2) / per_octave)) - math.log2(lo))
    first = min(steps, max(0, math.floor(dense)))
    tail = [round(lo * 2 ** (j / per_octave)) for j in range(first, steps + 1)]
    prefix = range(math.ceil(lo), min(tail[0], math.floor(hi) + 1))
    return [*prefix, *(v for v in sorted(set(tail)) if lo <= v <= hi)]
