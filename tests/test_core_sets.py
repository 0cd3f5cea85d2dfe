import cmath
import gc
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import core_sets
from salemkit.cantor import Level, make_plan
from salemkit.core_sets import (
    EXPONENT_CAP,
    IntegerSet,
    SpectrumSample,
    decay_exponent_fit,
    dft_char,
    dft_values,
    exp_sum,
    exp_sums,
    fractional_density,
    geometric_grid,
    loglog_fit,
    weyl_sum,
)
from salemkit.aps import dyadic_embed
from salemkit.equidist import NApproximation, characterize_salem, equidist_order, integers_from_approximations
from salemkit.generators import power_law_set, quadratic_residues
from salemkit.randfrac import RandomFractalConfig, _refine


@st.composite
def integer_sets(draw, min_horizon=8, max_horizon=256, min_size=0):
    horizon = draw(st.integers(min_horizon, max_horizon))
    elems = draw(st.sets(st.integers(0, horizon - 1), min_size=min_size, max_size=horizon))
    return IntegerSet.from_elements(elems, horizon)


def naive_dft(A, k):
    # full-range oracle: iterate every n in [0, N), multiply by the indicator
    members = set(A.elements)
    total = 0j
    for n in range(A.horizon):
        if n in members:
            total += cmath.exp(-2j * math.pi * k * n / A.horizon)
    return total / A.horizon


def exact_phase_sum(numerators, D, k):
    # oracle: each phase k*a/D reduced mod 1 as a Fraction, one cmath.exp per term
    return sum(cmath.exp(-2j * math.pi * float(Fraction(k * a, D) % 1)) for a in numerators)


def exponentiated(a, D, k):
    # reference: every residue k*a mod D exponentiated by np.exp
    return np.exp((-2j * np.pi / D) * (k[:, None] * a[None, :] % D)).sum(axis=1)


def first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


@st.composite
def integer_containers(draw):
    """A numpy integer dtype or object, and members and frequencies within
    its range, its extremes drawn often; object values reach 2**70."""
    dtype = draw(st.sampled_from([np.int16, np.int32, np.uint32, np.int64, np.uint64, object]))
    lo, hi = (-(2**70), 2**70) if dtype is object else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    value = st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi, hi // 2 + 1]))
    return dtype, draw(st.lists(value, min_size=1, max_size=30)), draw(st.lists(value, min_size=1, max_size=6))


class TestIntegerSet:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            IntegerSet((3, 1), 10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IntegerSet((1, 1), 10)

    def test_rejects_above_horizon(self):
        with pytest.raises(ValueError):
            IntegerSet((1, 10), 10)

    def test_count_below(self):
        A = IntegerSet((0, 3, 7), 10)
        assert [A.count_below(n) for n in (0, 1, 4, 8, 10)] == [0, 1, 2, 3, 3]


class TestOrderingChecks:
    @pytest.mark.parametrize("values", [(-1, 2), (1, 1), (3, 2), (0, 2, 2, 5)])
    def test_each_type_keeps_its_message(self, values):
        cases = [
            (lambda: IntegerSet(values, 8), "elements must be strictly increasing and non-negative"),
            (lambda: NApproximation(8, values), "cells must be strictly increasing and non-negative"),
            (lambda: Level(8, values, Fraction(1)), "digits must be strictly increasing and non-negative"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    @pytest.mark.parametrize("values", [(0.5, 1.7, 3.2), (1.9, 2.2), (0.3, 2.9), (1, 2.0), (Fraction(1), 3)])
    def test_non_integral_entries_refused(self, values):
        # int() would cut these silently, (0.5, 1.7, 3.2) to (0, 1, 3)
        cases = [
            (lambda: IntegerSet(values, 4), "elements must be integers"),
            (lambda: IntegerSet.from_elements(values, 4), "elements must be integers"),
            (lambda: NApproximation(8, values), "cells must be integers"),
            (lambda: Level(4, values, Fraction(1)), "digits must be integers"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    # int() used to cut each of these: to (8, 8, 8), frequency 1, a level of
    # size 4, the sample (2, 2), the sweep m = 2, 3, the exponents (7, 11)
    # and the frequency m = 2
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: RandomFractalConfig(0.5, (8.7, 8, 8), 3, 2, 1), "level_sizes"),
            # these three used to pass the checks and fail later with a TypeError
            (lambda: RandomFractalConfig(0.5, (8, 8, 8), 1.5, 2, 1), "depth"),
            (lambda: RandomFractalConfig(0.5, (8, 8, 8), 3, 2.5, 1), "trials"),
            (lambda: RandomFractalConfig(0.5, (8, 8, 8), 3, 2, 1.5), "master_seed"),
            (lambda: dft_char(IntegerSet((0, 1, 3), 8), [1.5]), "freqs"),
            (lambda: make_plan(IntegerSet((0, 1, 3), 8), [4.9, 8], 0.5), "level_horizons"),
            (lambda: fractional_density(IntegerSet((0, 1, 3), 8), [2.5, 8]), "grid"),
            (lambda: equidist_order([NApproximation(64, (0, 1, 3))], m_grid=[2.7, 3.2]), "m_grid"),
            (lambda: dyadic_embed(IntegerSet((0, 1, 3), 8), [7.9, 11.2], 2), "exponents"),
            (lambda: weyl_sum([Fraction(0), Fraction(1, 2)], 2.5), "m"),
        ],
        ids=["level_sizes", "depth", "trials", "master_seed", "freqs", "level_horizons", "grid", "m_grid",
             "exponents", "m"],
    )
    def test_non_integral_arguments_refused(self, build, what):
        with pytest.raises(ValueError, match=f"^{what} must be integers$"):
            build()

    @pytest.mark.parametrize("what", ["depth", "trials", "master_seed"])
    def test_bool_counts_refused(self, what):
        # a bool is an int to operator.index: trials=True used to run one
        # trial and print "trials":true in the report
        args = {"beta": 0.5, "level_sizes": (8, 8, 8), "depth": 3, "trials": 2, "master_seed": 1, what: True}
        with pytest.raises(ValueError, match=f"^{what} must be an integer, not a bool$"):
            RandomFractalConfig(**args)

    def test_numpy_integer_counts_stored_as_ints(self):
        config = RandomFractalConfig(0.5, (8, 8, 8), np.int64(3), np.int64(2), np.uint64(2**64 - 1))
        assert (config.depth, config.trials, config.master_seed) == (3, 2, 2**64 - 1)
        assert all(type(v) is int for v in (config.depth, config.trials, config.master_seed))

    def test_numpy_integers_accepted(self):
        values = np.array([0, 1, 3], dtype=np.int64)
        assert IntegerSet(values, 4).elements == (0, 1, 3)
        assert IntegerSet.from_elements(values, 4).elements == (0, 1, 3)
        assert NApproximation(8, values).cells == (0, 1, 3)
        assert Level(4, values, Fraction(1)).digits == (0, 1, 3)
        assert all(type(c) is int for c in NApproximation(8, values).cells)

    def test_approximation_sizes_strictly_increasing(self):
        approxs = [NApproximation(N, (0,)) for N in (16, 32, 32)]
        for check in (lambda: characterize_salem(approxs, 0.5), lambda: integers_from_approximations(approxs)):
            with pytest.raises(ValueError, match="^approximation sizes must be strictly increasing$"):
                check()


class TestFractionalDensity:
    def test_full_set_exponent_one(self):
        A = IntegerSet(tuple(range(256)), 256)
        est = fractional_density(A, [16, 64, 256])
        assert est.exponent == pytest.approx(1.0, abs=1e-12)
        assert est.residual == pytest.approx(0.0, abs=1e-12)

    def test_squares_exponent_half(self):
        A = IntegerSet.from_elements((n * n for n in range(100)), 10**4)
        est = fractional_density(A, [100, 400, 1600, 10**4])
        assert est.exponent == pytest.approx(0.5, abs=0.02)

    def test_random_two_thirds(self):
        # inclusion probability n**(-1/3) gives counts ~ N**(2/3); the
        # oracle recounts the sampled set by brute force
        A = power_law_set(10**5, 2 / 3, seed=7)
        grid = [10**2, 10**3, 10**4, 10**5]
        for n in grid:
            assert A.count_below(n) == sum(1 for e in A.elements if e < n)
        est = fractional_density(A, grid)
        assert est.exponent == pytest.approx(2 / 3, abs=0.05)

    def test_empty_set_flagged(self):
        est = fractional_density(IntegerSet((), 100), [10, 100])
        assert est.exponent == 0.0 and est.empty

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            fractional_density(IntegerSet((1,), 10), [10])

    def test_counts_non_decreasing(self):
        A = power_law_set(4096, 0.5, seed=3)
        est = fractional_density(A, [16, 64, 256, 1024, 4096])
        counts = [c for _, c in est.samples]
        assert counts == sorted(counts)


def math_log_fit(points):
    """Oracle: the least-squares slope of log y against log x and the RMS
    misfit of the logs around the line, by math.log and Python floats."""
    x = [math.log(p) for p, _ in points]
    y = [math.log(q) for _, q in points]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
    resid = math.sqrt(sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y)) / len(x))
    return slope, resid


class TestLogLogFit:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2**64 - 1), st.integers(1, 2**64 - 1)), min_size=2, max_size=12,
                    unique_by=lambda p: float(p[0])))
    def test_ints_below_2_64_read_as_numpy_casts_them(self, points):
        # the fit takes the log of each coordinate's correctly rounded
        # double, which is what np.log of an int64 or uint64 array reads
        def numpy_log(values):
            return np.log(np.array(values, dtype=np.uint64 if max(values) > 2**63 - 1 else np.int64))

        x, y = numpy_log([p for p, _ in points]), numpy_log([q for _, q in points])
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        assert [v.hex() for v in loglog_fit(points)] == [float(slope).hex(), resid.hex()]

    def test_past_2_64_matches_math_log(self):
        points = [(2**60, 3), (2**66, 5), (2**70 + 1, 9), (10**30, 40)]
        slope, resid = loglog_fit(points)
        want_slope, want_resid = math_log_fit(points)
        assert slope == pytest.approx(want_slope, rel=1e-12)
        assert resid == pytest.approx(want_resid, rel=1e-9)

    def test_past_the_double_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="double range"):
            loglog_fit([(2, 1), (2**1024, 5)])
        with pytest.raises(ValueError, match="double range"):
            fractional_density(IntegerSet((0, 1, 5), 2**1100), [2, 2**1100])

    def test_density_past_2_64(self):
        A = IntegerSet.from_elements([0, 3, 2**40, 2**63 + 5, 2**64 + 1, 2**70], 2**72 + 9)
        grid = [2**j for j in range(1, 72)] + [A.horizon]
        est = fractional_density(A, grid)
        slope, resid = math_log_fit([(n, c) for n, c in est.samples if c > 0])
        assert est.exponent == pytest.approx(slope, rel=1e-12)
        assert est.residual == pytest.approx(resid, rel=1e-9)


class TestDftChar:
    def test_full_set_orthogonality(self):
        A = IntegerSet((0, 1, 2, 3), 4)
        values = [s.value for s in dft_char(A, [0, 1, 2, 3])]
        assert values[0] == pytest.approx(1.0)
        for v in values[1:]:
            assert abs(v) < 1e-15

    def test_single_point(self):
        A = IntegerSet((0,), 4)
        for s in dft_char(A, [0, 1, 2, 3]):
            assert s.value == pytest.approx(0.25)

    def test_two_points(self):
        A = IntegerSet((0, 2), 4)
        values = [s.value for s in dft_char(A, [0, 1, 2, 3])]
        assert values[0] == pytest.approx(0.5)
        assert abs(values[1]) < 1e-15
        assert values[2] == pytest.approx(0.5)
        assert abs(values[3]) < 1e-15

    def test_frequency_out_of_range(self):
        with pytest.raises(ValueError):
            dft_char(IntegerSet((0,), 4), [4])

    @given(integer_sets(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle(self, A):
        ks = [0, 1, A.horizon // 2, A.horizon - 1]
        for s, k in zip(dft_char(A, ks), ks):
            assert abs(s.value - naive_dft(A, k)) < 1e-10

    @given(integer_sets(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_parseval(self, A):
        # sum over all frequencies of |value|^2 equals |A|/N
        values = dft_char(A, range(A.horizon))
        total = sum(abs(s.value) ** 2 for s in values)
        assert total == pytest.approx(len(A) / A.horizon, abs=1e-10)

    @given(integer_sets(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry(self, A):
        ks = range(1, A.horizon)
        values = {k: s.value for k, s in zip(ks, dft_char(A, ks))}
        for k in list(values)[:16]:
            assert values[A.horizon - k] == pytest.approx(values[k].conjugate(), abs=1e-12)

    @given(integer_sets(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_zero_frequency_is_density(self, A):
        assert dft_char(A, [0])[0].value == len(A) / A.horizon

    @pytest.mark.parametrize("N", [2**31 - 1, 2**31 + 1, 2**62, 10**10])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_exact_at_large_horizons(self, N, data):
        # k*n overflows int64 above N ~ 3e9; the phases must still be exact
        values = st.integers(0, N - 1) | st.integers(0, 2**20).map(lambda j: N - 1 - j)
        elems = data.draw(st.sets(values, min_size=1, max_size=12))
        ks = data.draw(st.lists(values, min_size=1, max_size=4))
        A = IntegerSet.from_elements(elems, N)
        for s, k in zip(dft_char(A, ks), ks):
            assert abs(s.value - exact_phase_sum(A.elements, N, k) / N) <= 1e-14 * len(A) / N


def scalar_dft_rows(ks, sums, N):
    """Oracle: dft_char's rows by the scalar loop, as (frequency, real,
    imaginary) hex strings."""
    rows = [(float(k), complex(s) / N) for k, s in zip(ks, sums)]
    return [(f.hex(), v.real.hex(), v.imag.hex()) for f, v in rows]


def hex_rows(samples):
    return [(s.frequency.hex(), s.value.real.hex(), s.value.imag.hex()) for s in samples]


# Parts where the normalization's im*0.0 and re*0.0 terms count: signed
# zeros, subnormals, infinities, nan and the largest doubles.
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308,
              -1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -0.5]


class TestDftCharRows:
    @settings(max_examples=300, deadline=None)
    @given(
        N=st.one_of(st.integers(1, 2**20), st.integers(2**53 - 8, 2**53 + 2**20), st.integers(2**63 - 8, 2**64 + 2**20)),
        parts=st.lists(st.tuples(*[st.one_of(st.floats(), st.sampled_from(EDGE_PARTS))] * 2), min_size=1, max_size=16),
    )
    @example(N=2**53 + 1, parts=[(1.0, -0.0), (-0.0, 0.0), (math.inf, 1.0), (1.0, -math.inf), (math.nan, 5e-324)])
    @example(N=3, parts=[(0.0, -0.0), (-0.0, -0.0), (5e-324, -5e-324)])
    def test_rows_match_scalar_normalization(self, N, parts):
        # Any sums, through the patched kernel: each row is float(k) and
        # complex(s) / N to the bit, whatever the parts hold.
        sums = [complex(re, im) for re, im in parts]
        ks = list(range(min(N, len(sums))))
        A = IntegerSet((0,), N)
        patched = mock.patch.object(core_sets, "exp_sum", lambda members, D, freqs: np.array(sums[: len(freqs)], complex))
        # inf * 0.0 is nan in Python too, without numpy's warning
        with patched, np.errstate(invalid="ignore"):
            rows = dft_char(A, ks)
        assert hex_rows(rows) == scalar_dft_rows(ks, sums, N)
        assert all(type(s) is SpectrumSample and type(s.value) is complex for s in rows)

    @pytest.mark.parametrize("N", [2**53 + 1, 2**53 + 3, 2**62 + 11, 2**64 + 13])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_kernel_rows_match_scalar_loop_past_2_53(self, N, data):
        # float(N) rounds here, and past 2**63 the sums run on Python ints
        values = st.integers(0, N - 1) | st.integers(0, 2**20).map(lambda j: N - 1 - j)
        A = IntegerSet.from_elements(data.draw(st.sets(values, min_size=1, max_size=8)), N)
        ks = data.draw(st.lists(values, min_size=1, max_size=6))
        assert hex_rows(dft_char(A, ks)) == scalar_dft_rows(ks, exp_sum(A.elements, N, ks), N)

    def test_empty_frequencies(self):
        assert dft_char(IntegerSet((0,), 10**400), []) == []

    def test_first_frequency_out_of_range_is_named(self):
        with pytest.raises(ValueError, match=r"frequency -1 outside \[0, 8\)"):
            dft_char(IntegerSet((0,), 8), [3, -1, 9])
        with pytest.raises(ValueError, match=r"frequency 9 outside \[0, 8\)"):
            dft_char(IntegerSet((0,), 8), [3, 9, -1])


def next_prime(n):
    while n < 2 or any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def qr_sum(p, k):
    """The closed form of sum_{r in QR(p) with 0} e(-k r / p) at k not 0
    mod p: (1 + (k/p) * conj(g)) / 2, with the Gauss sum g = sqrt(p) for p
    = 1 mod 4 and i sqrt(p) for p = 3 mod 4."""
    legendre = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
    conj_g = math.sqrt(p) if p % 4 == 1 else -1j * math.sqrt(p)
    return (1 + legendre * conj_g) / 2


# Unit roundoff of a double.
U = 2.0**-53


class TestDftValues:
    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(3, 10**5).map(next_prime), data=st.data())
    @example(p=1_000_003, data=None)
    def test_quadratic_residues_closed_form(self, p, data):
        # QR(p) with 0 has the Gauss-sum transform at every k != 0.  Each
        # term's angle (-2 pi / p) * r carries three roundings (pi, the
        # quotient, the product), at most 3u * 2 pi, and its exp a few ulp;
        # the pairwise sum of n unit terms adds about u * n * log2(n).
        A = quadratic_residues(p)
        n = len(A)
        assert n == (p + 1) // 2
        if data is None:
            ks = [1, 2, 3, 5, 123_456, p - 2, p - 1]
        else:
            ks = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=12))
        values = dft_values(A, [0, *ks])
        assert values[0] == complex(n / p)
        tolerance = n * U * (3 * 2 * math.pi + 8 + math.log2(n) + 16) / p
        for k, value in zip(ks, values[1:].tolist()):
            assert abs(value - qr_sum(p, k) / p) <= tolerance

    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(3, 400).map(next_prime), t=st.integers(1, 60))
    @example(q=3, t=1)
    @example(q=101, t=1000)  # N near 10**10, every product k * s**2 in int64
    @example(q=3, t=30_000)  # N near 8 * 10**9, products past int64
    def test_squares_at_a_prime_fraction_of_the_horizon(self, q, t):
        # The n = qt squares below N = (qt)**2 at k = N/q: each phase
        # q t**2 s**2 / N is s**2 / q, so the sum is t periods of the Gauss
        # sum over Z/q, of modulus sqrt(q), and |value| * N / n = 1/sqrt(q).
        # The sum's error is bounded as in the QR(p) test, n * u * (3 * 2 pi
        # + 8 + log2(n) + 16); scaling by N / n and taking the modulus add
        # a few roundings of a ratio below 1.
        n, N = q * t, (q * t) ** 2
        A = IntegerSet.from_elements([s * s for s in range(n)], N)
        (value,) = dft_values(A, [N // q]).tolist()
        tolerance = U * (3 * 2 * math.pi + 8 + math.log2(n) + 16) + 4 * U
        assert abs(abs(value) * N / n - 1 / math.sqrt(q)) <= tolerance

    @settings(max_examples=100, deadline=None)
    @given(A=integer_sets(min_size=1), data=st.data())
    def test_columns_are_dft_char_rows(self, A, data):
        ks = data.draw(st.lists(st.integers(0, A.horizon - 1), max_size=20))
        values = dft_values(A, ks)
        assert values.dtype == complex and values.shape == (len(ks),)
        rows = [(float(k).hex(), v.real.hex(), v.imag.hex()) for k, v in zip(ks, values.tolist())]
        assert rows == hex_rows(dft_char(A, ks))

    @pytest.mark.parametrize("N", [2**53 + 3, 2**64 + 13])
    def test_columns_are_dft_char_rows_past_2_53(self, N):
        A = IntegerSet.from_elements([0, 3, 2**32 + 1, N - 2], N)
        ks = [1, 2, 2**53 + 1, N - 1]
        values = dft_values(A, ks)
        rows = [(float(k).hex(), v.real.hex(), v.imag.hex()) for k, v in zip(ks, values.tolist())]
        assert rows == hex_rows(dft_char(A, ks))

    def test_checks_match_dft_char(self):
        assert dft_values(IntegerSet((0,), 10**400), []).shape == (0,)
        with pytest.raises(ValueError, match=r"frequency 9 outside \[0, 8\)"):
            dft_values(IntegerSet((0,), 8), [3, 9, -1])
        with pytest.raises(ValueError, match="freqs"):
            dft_values(IntegerSet((0, 1, 3), 8), [1.5])


class TestExpSum:
    def test_empty_inputs(self):
        assert list(exp_sum([], 7, [1, 2])) == [0j, 0j]
        assert len(exp_sum([1, 2], 7, [])) == 0

    def test_denominator_validated(self):
        with pytest.raises(ValueError):
            exp_sum([1], 0, [1])

    def test_integral_phases_sum_exactly(self):
        assert list(exp_sum([0, 5, 10], 5, [0, 3])) == [3, 3]

    @given(
        st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=10),
        st.sampled_from([1, 12, 2**31 + 1, 2**40, 2**63 - 1, 2**63, 3**50]),
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_oracle(self, numerators, D, freqs):
        # arbitrary signs and sizes on either side of the int64 products
        got = exp_sum(numerators, D, freqs)
        for v, k in zip(got, freqs):
            assert abs(v - exact_phase_sum(numerators, D, k)) <= 1e-14 * len(numerators)

    @given(
        case=integer_containers(),
        D=st.sampled_from([7, 1009, 2**12, 2**40 + 15, 2**63 + 1]),
        side=st.sampled_from(["members", "freqs", "both"]),
    )
    @example(case=(np.int32, list(range(1, 200, 7)), [3, 5, 700]), D=1009, side="members")
    @example(case=(np.int32, list(range(1, 200, 7)), [3, 5, 700]), D=1009, side="freqs")
    @example(case=(np.uint64, [2**63 + 5, 3, 2**64 - 1], [1, 2**63 + 1]), D=7, side="both")
    @settings(max_examples=100, deadline=None)
    def test_any_integer_container_keeps_the_lists_bits(self, case, D, side):
        # the path is picked by the values, not by what holds them: members
        # or frequencies in a numpy integer array of any width or sign, or
        # in an object array, sum to the bits of the same values in a list,
        # also past int64 (uint64 and object values up to 2**64 and 2**70).
        # The sums are also held to the exact oracle, since the list takes
        # the same path: a uint64 past int64 must not wrap.
        dtype, members, freqs = case
        ref = exp_sum(members, D, freqs).view(np.int64)
        a = np.array(members, dtype=dtype) if side != "freqs" else members
        k = np.array(freqs, dtype=dtype) if side != "members" else freqs
        got = exp_sum(a, D, k)
        assert np.array_equal(got.view(np.int64), ref)
        for v, kk in zip(got, freqs):
            assert abs(v - exact_phase_sum(members, D, kk)) <= 1e-14 * len(members)

    @pytest.mark.parametrize(
        "D, rows, cols",
        [
            (2**20, 25, 41943),  # rows * cols = D - 1: exponentiated at every call
            (2**20, 16, 65536),  # tabulated, rows * cols = D
            (10**6, 16, 62500),  # tabulated, and -2 pi / D is inexact
            (2**20 + 1, 16, 65536),  # above the table cap, rows * cols = D - 1
            (2**20 + 1, 17, 61681),  # above the table cap, rows * cols = D
            (2**18, 3, 1000),  # power of two, fewer phases than D: masked, untabulated
            (2**31, 8, 1000),  # power of two above the table cap: masked int64 products
        ],
    )
    def test_bits_match_exponentiated_residues(self, D, rows, cols, tabulated_calls):
        # neither the phase table nor the power-of-two mask may move a
        # single bit of the sums; each call tabulates exactly when it asks
        # for D phases itself, if D is under the cap, so repeating it
        # changes nothing
        rng = np.random.default_rng(D + rows)
        a = rng.integers(0, D, cols)
        k = rng.integers(0, D, rows)
        ref = exponentiated(a, D, k)
        tabulated = D <= 2**20 and rows * cols >= D
        for call in (1, 2):
            assert np.array_equal(exp_sum(a, D, k).view(np.int64), ref.view(np.int64))
            assert tabulated_calls() == call * tabulated
        if D <= 2**20:
            assert not core_sets._unit_roots(D).flags.writeable

    @pytest.mark.parametrize("D, cols", [(1000, 100), (1024, 128)])
    def test_path_reads_only_its_own_call(self, D, cols, tabulated_calls):
        # a call gathers from the table exactly when it asks for at least D
        # phases itself: small calls after a large one at the same D, however
        # many, exponentiate, and one phase short of D is not enough
        rng = np.random.default_rng(D)
        a = rng.integers(0, D, cols)
        full = D // cols  # rows * cols = D
        tabulated = 0
        for rows in (full, 3, 3, 3, 3, 1, full, full - 1):
            k = rng.integers(0, D, rows)
            assert np.array_equal(exp_sum(a, D, k).view(np.int64), exponentiated(a, D, k).view(np.int64))
            tabulated += rows == full
            assert tabulated_calls() == tabulated
        # a grouped call counts the phases of all its groups: four groups
        # of a quarter of the members each reach D together, not alone
        k = rng.integers(0, D, full)
        got = exp_sums([a[j::4] for j in range(4)], D, k)
        assert tabulated_calls() == tabulated + 1
        for j, row in enumerate(got):
            assert np.array_equal(row.view(np.int64), exponentiated(a[j::4], D, k).view(np.int64))

    def test_interleaved_denominators_build_no_table(self, tabulated_calls):
        # characterize's pattern: one call per denominator in turn, each
        # under its D; however long it goes on, no table is built
        rng = np.random.default_rng(8)
        a = rng.integers(0, 10**6, 300)
        for _ in range(20):
            for D in (10**4, 2**12, 10**3):
                k = rng.integers(0, D, 3)
                assert np.array_equal(exp_sum(a, D, k).view(np.int64), exponentiated(a, D, k).view(np.int64))
        assert tabulated_calls() == 0

    @pytest.mark.parametrize("D", [5, 4097, 2**18, 10**6, 2**20])
    def test_table_built_in_place(self, D, tabulated_calls):
        # built from an empty cache, the table is the only D-sized buffer
        # its build allocates, and each entry is the exponentiated residue
        tracemalloc.start()
        try:
            table = core_sets._unit_roots(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes + (1 << 16)
        ref = np.exp((-2j * np.pi / D) * np.arange(D, dtype=np.int64))
        assert np.array_equal(table.view(np.int64), ref.view(np.int64))

    def test_racing_calls_build_one_table(self, tabulated_calls):
        # eight threads whose calls, each of D phases, ask for a new table
        # at once: one of them builds the 4 MiB table of 2**18 unit roots
        # while the others wait for it, and every sum keeps its bits
        D = 2**18
        rng = np.random.default_rng(15)
        a = rng.integers(0, D, D // 4)
        k = rng.integers(0, D, 4)
        ref = exponentiated(a, D, k).view(np.int64)
        start = threading.Barrier(8)
        got = []

        def call():
            start.wait(timeout=60)
            got.append(exp_sum(a, D, k).view(np.int64))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 and all(np.array_equal(g, ref) for g in got)
        assert core_sets._unit_roots.cache_info().misses == 1

    @pytest.mark.parametrize("D", [10**8, 10**6])
    def test_one_call_allocates_two_blocks(self, D, tabulated_calls, monkeypatch):
        # characterize's finest member: 13,600 cells by 146 frequencies, at
        # the benchmark's D = 10**8 (exponentiated) and at a tabulated D.
        # Beyond one residue block and one phase block per thread, a call
        # allocates under 64 KiB: at one worker, the two blocks in all.
        rng = np.random.default_rng(D)
        a = np.sort(rng.choice(D, 13600, replace=False))
        k = np.arange(2, 148)
        rows = core_sets._CHUNK // len(a)
        slabs = -(-len(k) // rows)
        blocks = rows * len(a) * (8 + 16)
        tabulated = D <= 2**20
        if tabulated:
            core_sets._unit_roots(D)  # built before the calls, outside their peaks
        ref = exponentiated(a, D, k)
        for calls, workers in enumerate((1, 2, 4), 1):
            monkeypatch.setattr(core_sets, "_WORKERS", workers)
            tracemalloc.start()
            try:
                got = exp_sum(a, D, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the build and each call ask the table cache once
            assert tabulated_calls() == (1 + calls) * tabulated
            assert peak < min(workers, slabs) * blocks + (1 << 16)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @given(
        D=st.sampled_from([1000, 1024, 10007, 2**14]),
        tabulated=st.booleans(),
        cols=st.integers(1, 40),
        slabs=st.integers(1, 9),
        last=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(D=1000, tabulated=True, cols=16, slabs=3, last=4, seed=1)  # fewer slabs than 4 workers
    @example(D=1024, tabulated=False, cols=16, slabs=4, last=4, seed=2)  # as many as 4 workers
    @example(D=10007, tabulated=False, cols=16, slabs=7, last=1, seed=3)  # no count of 2 to 4 workers divides 7
    @settings(max_examples=60, deadline=None)
    def test_split_moves_no_bit(self, D, tabulated, cols, slabs, last, seed):
        # slabs of at most 64 entries, so few rows make many slabs: at 1 to
        # 4 workers, with the table or np.exp, the mask or % D, every sum
        # is the exponentiated residues' sum bit for bit.  A call asks for
        # at most 576 phases, under every drawn D, so it exponentiates; to
        # gather from the table, D is cut to the call's phases, or for a
        # drawn power of two to the largest power of two within them.
        rows = 64 // cols
        n = (slabs - 1) * rows + min(last, rows)
        if tabulated:
            D = 1 << ((n * cols).bit_length() - 1) if D & (D - 1) == 0 else n * cols
        rng = np.random.default_rng(seed)
        a = rng.integers(0, D, cols)
        k = rng.integers(0, D, n)
        ref = exponentiated(a, D, k).view(np.int64)
        info = core_sets._unit_roots.cache_info()
        asked = info.hits + info.misses
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_sets, "_CHUNK", 64)
            for workers in (1, 2, 3, 4):
                mp.setattr(core_sets, "_WORKERS", workers)
                assert np.array_equal(exp_sum(a, D, k).view(np.int64), ref)
        info = core_sets._unit_roots.cache_info()
        assert info.hits + info.misses - asked == 4 * tabulated

    def test_one_slab_starts_no_thread(self, monkeypatch):
        # a 63-row call over 1000 members, a slab of exactly 2**16 entries,
        # and one row longer than a slab: each is one slab, summed on the
        # caller
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setattr(core_sets, "_WORKERS", 4)
        rng = np.random.default_rng(9)
        for D, cols, rows in [(4096, 1000, 63), (2**20, 1024, 64), (10**8, 70000, 1)]:
            a = rng.integers(0, D, cols)
            k = rng.integers(0, D, rows)
            assert np.array_equal(exp_sum(a, D, k).view(np.int64), exponentiated(a, D, k).view(np.int64))
        assert started == []

    def test_calls_leave_only_the_table(self, monkeypatch, tabulated_calls):
        # ten calls of 3 slabs each, at 4 workers: once the calls return,
        # all that stays traced is the unit-root table that each call, of
        # 180,000 >= D phases, reads, and no thread started for them is
        # alive
        monkeypatch.setattr(core_sets, "_WORKERS", 4)
        rng = np.random.default_rng(14)
        D = 174763
        a = rng.integers(0, D, 20000)
        ks = [rng.integers(0, D, 9) for _ in range(10)]  # 3 rows a slab, 3 slabs
        refs = [exponentiated(a, D, k).view(np.int64) for k in ks]
        tracemalloc.start()
        try:
            got = [exp_sum(a, D, k) for k in ks]
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tabulated_calls() == 10
        assert traced < core_sets._unit_roots(D).nbytes + (1 << 16)
        assert not any(t.name == "share" for t in threading.enumerate())
        assert all(np.array_equal(g.view(np.int64), ref) for g, ref in zip(got, refs))

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("bad", [0, 4, 9])
    def test_a_raising_slab_leaves_nothing(self, monkeypatch, workers, bad):
        # a call of 10 slabs whose slab ``bad`` raises, on the calling
        # thread or another: its exception is raised once every thread has
        # joined, and once it is dropped, with the garbage collector off,
        # nothing of the call stays traced.  On one thread no slab is
        # taken after it.
        monkeypatch.setattr(core_sets, "_WORKERS", workers)
        slab_sums = core_sets._slab_sums
        rng = np.random.default_rng(13)
        D = 2**18
        a = rng.integers(0, D, 20000)
        k = rng.integers(0, D, 30)  # 3 rows a slab, 10 slabs
        calls = []

        def spy(a, ks, *args):
            calls.append(ks)
            if len(calls) == bad + 1:
                raise ArithmeticError("slab")
            slab_sums(a, ks, *args)

        monkeypatch.setattr(core_sets, "_slab_sums", spy)
        core_sets._unit_roots(D)  # built before the call, outside the trace
        gc.disable()
        tracemalloc.start()
        try:
            try:
                exp_sum(a, D, k)
            except ArithmeticError as exc:
                assert str(exc) == "slab"
            else:
                pytest.fail("the raising slab's exception was not raised")
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert not any(t.name == "share" for t in threading.enumerate())
        assert len(calls) == bad + 1 if workers == 1 else bad < len(calls)
        assert traced < 1 << 16

    def test_no_item_is_taken_after_a_raise(self, monkeypatch):
        # at W = 2 the started thread raises on its first item, and the
        # calling thread's item returns only once that thread has ended:
        # neither thread takes another of the ten items
        monkeypatch.setattr(core_sets, "_WORKERS", 2)
        taken = []

        def item(i):
            taken.append(i)
            if threading.current_thread().name == "share":
                raise ArithmeticError(i)
            deadline = time.monotonic() + 60
            while any(t.name == "share" for t in threading.enumerate()) and time.monotonic() < deadline:
                time.sleep(0.001)

        with pytest.raises(ArithmeticError):
            core_sets._share(item, 10, 1)
        assert 1 <= len(taken) <= 2

    def test_concurrent_callers_keep_their_bits(self, monkeypatch):
        # more callers and workers than cores, switching threads often:
        # every caller's split sums keep their bits
        monkeypatch.setattr(core_sets, "_WORKERS", 4)
        rng = np.random.default_rng(12)
        calls = []
        for D in (10**8, 2**18, 10007, 2**40) * 2:
            a = rng.integers(0, min(D, 2**20), 5000)
            k = rng.integers(0, min(D, 2**20), 70)  # 13 rows a slab, 6 slabs
            calls.append((a, D, k, exponentiated(a, D, k).view(np.int64)))
        mismatches = []
        start = threading.Barrier(len(calls))

        def call(a, D, k, ref):
            start.wait(timeout=60)
            for _ in range(5):
                if not np.array_equal(exp_sum(a, D, k).view(np.int64), ref):
                    mismatches.append(D)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=args) for args in calls]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_its_calls(self, monkeypatch):
        # a forked child's split call keeps its bits, and its threads have
        # joined when the call returns, as in the parent
        monkeypatch.setattr(core_sets, "_WORKERS", 2)
        rng = np.random.default_rng(10)
        D = 10**8
        a = rng.integers(0, D, 20000)
        k = rng.integers(0, D, 12)  # 3 rows a slab, 4 slabs
        ref = exponentiated(a, D, k).view(np.int64)
        assert np.array_equal(exp_sum(a, D, k).view(np.int64), ref)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                bits = np.array_equal(exp_sum(a, D, k).view(np.int64), ref)
                code = 0 if bits and threading.active_count() == 1 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's exp_sum did not return")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_int64_boundary(self):
        # largest product 2**63 - 2**31 fits int64, 2**63 does not
        D = 2**40 + 15
        k = 2**31
        for numerators in ([3, 2**32 - 1], [3, 2**32]):
            got = exp_sum(numerators, D, [k])[0]
            assert abs(got - exact_phase_sum(numerators, D, k)) <= 2e-14


@st.composite
def grouped_sums(draw):
    """A denominator, frequencies and groups of members for exp_sums: groups
    as lists, as int64 (or object) arrays, and empty ones as [], as a
    float64 np.array([]) and as an empty int64 array.  D = 2**40 + 15 mixes
    groups whose products fit int64 with groups whose products do not, and
    2**63 + 1 and 3**50 are past int64 (the object path)."""
    D = draw(st.sampled_from([1000, 1024, 10007, 2**14, 2**40 + 15, 2**63 + 1, 3**50]))
    freqs = draw(st.lists(st.integers(0, min(D - 1, 2**40)), min_size=1, max_size=12))
    groups = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["list", "array", "[]", "float []", "int64 []"]))
        if kind.endswith("[]"):
            groups.append({"[]": [], "float []": np.array([]), "int64 []": np.zeros(0, dtype=np.int64)}[kind])
            continue
        top = draw(st.sampled_from([min(D, 2**20), D])) - 1
        members = draw(st.lists(st.integers(0, top), min_size=1, max_size=10))
        if kind == "array":
            members = np.array(members, dtype=np.int64 if top <= 2**63 - 1 else object)
        groups.append(members)
    return D, freqs, groups


class TestExpSums:
    @given(case=grouped_sums(), tabulated=st.booleans())
    @example(case=(1000, [3, 7], [[], np.array([]), np.zeros(0, dtype=np.int64)]), tabulated=True)  # all empty
    @example(case=(1024, list(range(1, 13)), [list(range(0, 1000, 37))]), tabulated=False)  # one group
    @example(case=(10007, [5, 9999], [np.array([]), [1, 2, 3], [], np.arange(20, 30)]), tabulated=True)
    @example(case=(2**40 + 15, [2**31], [[3, 2**32], [3, 2**32 - 1], []]), tabulated=False)  # one group overflows
    @settings(max_examples=60, deadline=None)
    def test_rows_are_each_groups_exp_sum(self, case, tabulated):
        # slabs of at most 64 entries, so the groups are cut into several
        # runs and wide groups into several slabs of rows: at 1, 2 and 4
        # workers, with the table or np.exp, the mask or % D, each group's
        # row is exp_sum of that group alone bit for bit, and an empty
        # group's row is 0.  Where every product fits int64, each row is
        # also the sum of the group's exponentiated residues.  The groups
        # ask for at most 720 phases, under every drawn D, so the call
        # exponentiates; to gather from the table, a last group of D
        # members brings the call to at least D phases.
        D, freqs, groups = case
        refs = [exp_sum(g, D, freqs).view(np.int64) for g in groups]
        small = D <= 2**14  # every product fits int64, so every member takes the int64 path
        if small:
            k = np.array(freqs, dtype=np.int64)
            for g, ref in zip(groups, refs):
                if len(g):
                    assert np.array_equal(exponentiated(np.array(g, dtype=np.int64), D, k).view(np.int64), ref)
        tabulated = tabulated and small
        extra = [np.arange(D)] if tabulated else []
        info = core_sets._unit_roots.cache_info()
        asked = info.hits + info.misses
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_sets, "_CHUNK", 64)
            for workers in (1, 2, 4):
                mp.setattr(core_sets, "_WORKERS", workers)
                got = exp_sums(groups + extra, D, freqs)
                assert got.shape == (len(groups) + len(extra), len(freqs))
                for g, row, ref in zip(groups, got, refs):
                    assert np.array_equal(row.view(np.int64), ref)
                    if not len(g):
                        assert not row.any()
        info = core_sets._unit_roots.cache_info()
        assert info.hits + info.misses - asked == 3 * tabulated

    def test_no_frequencies(self):
        assert exp_sums([[1, 2], []], 7, []).shape == (2, 0)
        assert exp_sums([], 7, [1]).shape == (0, 1)

    def test_one_lemma_call_allocates_two_blocks(self, tabulated_calls, monkeypatch):
        # lemma 6.3's grouped call at N1 = 4096: 200 trials' stage-1 cells
        # by 63 frequencies, 19 MB of residues and phases in all.  Beyond
        # one residue block and one phase block per thread, the output and
        # the joined members, a call allocates under 64 KiB, and the two
        # buffers of np.getbufsize() int64 entries per thread that numpy's
        # ufunc iterator takes for the outer product of a slab's rows,
        # which are shorter than that.
        cfg = RandomFractalConfig(0.5, (4096,), 1, 200, 20260810)
        stage1 = [_refine(cfg, t)[0] for t in range(cfg.trials)]
        k = np.arange(2, 65)
        slabs = core_sets._slabs([(g, c) for g, c in enumerate(stage1) if len(c)], len(k))
        assert len(slabs) > 4
        blocks = max((min(hi, len(k)) - lo) * len(a) for _, a, lo, hi in slabs) * (8 + 16)
        output, joined = len(stage1) * len(k) * 16, sum(map(len, stage1)) * 8
        refs = [exp_sum(c, 4096, k).view(np.int64) for c in stage1]
        core_sets._unit_roots(4096)  # built before the calls, outside their peaks
        for workers in (1, 2, 4):
            monkeypatch.setattr(core_sets, "_WORKERS", workers)
            tracemalloc.start()
            try:
                got = exp_sums(stage1, 4096, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            buffers = 2 * 8 * np.getbufsize()
            assert peak < min(workers, len(slabs)) * (blocks + buffers) + output + joined + (1 << 16)
            assert all(np.array_equal(row.view(np.int64), ref) for row, ref in zip(got, refs))


class TestWeylSum:
    def test_antipodal_cancellation(self):
        assert abs(weyl_sum([Fraction(0), Fraction(1, 2)], 1)) < 1e-15

    def test_integral_phases(self):
        assert weyl_sum([Fraction(0), Fraction(1, 2)], 2) == 1.0

    def test_fourth_roots(self):
        pts = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        assert abs(weyl_sum(pts, 1)) < 1e-15

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            weyl_sum([Fraction(0)], 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weyl_sum([], 1)

    def test_large_common_denominator(self):
        # the lcm of the first 200 primes has 513 digits; the value is the
        # exact-rational per-point sum
        pts = [Fraction(1, p) for p in first_primes(200)]
        assert weyl_sum(pts, 3) == pytest.approx(0.9474378159000466 - 0.0891330102924277j, abs=1e-12)

    def test_points_outside_unit_interval(self):
        pts = [Fraction(-7, 3), Fraction(5, 2), Fraction(1, 6)]
        want = sum(cmath.exp(-2j * math.pi * float(p * 5 % 1)) for p in pts) / 3
        assert weyl_sum(pts, 5) == pytest.approx(want, abs=1e-14)
        assert weyl_sum(pts, -5) == pytest.approx(want.conjugate(), abs=1e-14)

    @given(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64), min_size=1, max_size=20),
        st.integers(-30, 30).filter(lambda m: m != 0),
    )
    @settings(max_examples=100, deadline=None)
    def test_modulus_at_most_one(self, pts, m):
        assert abs(weyl_sum(pts, m)) <= 1 + 1e-12

    def test_unit_modulus_iff_single_phase_class(self):
        # all points congruent mod 1/m: modulus exactly 1
        pts = [Fraction(1, 6), Fraction(1, 6) + Fraction(1, 3), Fraction(1, 6) + Fraction(2, 3)]
        assert abs(weyl_sum(pts, 3)) == pytest.approx(1.0)
        # two distinct phase classes: modulus strictly below 1
        pts = [Fraction(0), Fraction(1, 6)]
        assert abs(weyl_sum(pts, 3)) < 1 - 1e-6


class TestDecayExponentFit:
    def test_synthetic_power_law(self):
        samples = [(m, m**-0.5) for m in range(2, 1025)]
        assert decay_exponent_fit(samples) == pytest.approx(1.0, abs=1e-12)

    def test_constant_magnitudes(self):
        samples = [(m, 1.0) for m in (2, 4, 8, 16)]
        assert decay_exponent_fit(samples) == 0.0

    def test_all_below_floor_returns_cap(self):
        samples = [(m, 1e-15) for m in (2, 4, 8, 16)]
        assert decay_exponent_fit(samples) == EXPONENT_CAP

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            decay_exponent_fit([(1, 0.5), (2, 0.5), (4, 0.5), (8, 0.5)])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            decay_exponent_fit([(2, 0.5), (4, 0.5), (8, 0.5)])

    @given(
        st.lists(
            st.tuples(st.integers(2, 10**6), st.floats(0, 1, exclude_min=False)),
            min_size=4,
            max_size=30,
        ),
        st.lists(st.floats(0, 1), min_size=30, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_magnitudes(self, samples, shrink):
        smaller = [(m, mag * s) for (m, mag), s in zip(samples, shrink)]
        assert decay_exponent_fit(smaller) >= decay_exponent_fit(samples) - 1e-12


def ladder_integer_grid(lo, hi, per_octave):
    """Oracle: every ladder sample lo * 2**(j/per_octave) evaluated, rounded
    and deduplicated, kept within [lo, hi]."""
    steps = int(math.ceil(math.log2(hi / lo) * per_octave)) if hi > lo else 0
    vals = [lo * 2 ** (j / per_octave) for j in range(steps + 1)]
    return [v for v in sorted({int(round(v)) for v in vals}) if lo <= v <= hi]


class TestGeometricGrid:
    @given(
        st.floats(0, 100, exclude_min=True),
        st.one_of(st.just(1.0), st.floats(1, 1e6)),
        st.one_of(st.just(1), st.integers(1, 4096)),
    )
    @example(2, 3**7 / 2, 2048)
    @example(1, 10**5 - 1, 8)
    @example(0.3, 1.0, 1)
    @example(0.5, 2e5, 1)
    @example(100, 1e6, 4096)
    @example(7.5, 1.0, 3)
    @settings(max_examples=150, deadline=None)
    def test_integer_grid_is_the_rounded_ladder(self, lo, ratio, per_octave):
        # The dense prefix is emitted as a range and only the tail is
        # evaluated, yet the grid is the whole ladder's rounding.
        hi = lo * ratio
        assert geometric_grid(lo, hi, per_octave, integers=True) == ladder_integer_grid(lo, hi, per_octave)

    def test_integer_grid_covers_low_range(self):
        grid = geometric_grid(2, 100, 16, integers=True)
        assert grid[:8] == [2, 3, 4, 5, 6, 7, 8, 9]
        assert all(2 <= m <= 100 for m in grid)

    def test_endpoint_not_forced(self):
        grid = geometric_grid(2, 10**5 - 1, 8, integers=True)
        assert grid[-1] <= 10**5 - 1
        assert grid == sorted(set(grid))

    @pytest.mark.parametrize("lo, hi", [(2, math.inf), (2, math.nan), (math.nan, 10), (-math.inf, 10)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            geometric_grid(lo, hi, 16)
