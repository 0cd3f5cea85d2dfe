import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemkit import core_sets
from salemkit.cantor import Level, make_plan
from salemkit.core_sets import (
    EXPONENT_CAP,
    IntegerSet,
    decay_exponent_fit,
    dft_char,
    exp_sum,
    fractional_density,
    geometric_grid,
    weyl_sum,
)
from salemkit.aps import dyadic_embed
from salemkit.equidist import NApproximation, characterize_salem, equidist_order, integers_from_approximations
from salemkit.generators import power_law_set
from salemkit.randfrac import RandomFractalConfig


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


def first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


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
            (lambda: dft_char(IntegerSet((0, 1, 3), 8), [1.5]), "freqs"),
            (lambda: make_plan(IntegerSet((0, 1, 3), 8), [4.9, 8], 0.5), "level_horizons"),
            (lambda: fractional_density(IntegerSet((0, 1, 3), 8), [2.5, 8]), "grid"),
            (lambda: equidist_order([NApproximation(64, (0, 1, 3))], m_grid=[2.7, 3.2]), "m_grid"),
            (lambda: dyadic_embed(IntegerSet((0, 1, 3), 8), [7.9, 11.2], 2), "exponents"),
            (lambda: weyl_sum([Fraction(0), Fraction(1, 2)], 2.5), "m"),
        ],
        ids=["level_sizes", "freqs", "level_horizons", "grid", "m_grid", "exponents", "m"],
    )
    def test_non_integral_arguments_refused(self, build, what):
        with pytest.raises(ValueError, match=f"^{what} must be integers$"):
            build()

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

    @pytest.mark.parametrize(
        "D, rows, cols",
        [
            (2**20, 25, 41943),  # tabulated, rows * cols = D - 1
            (2**20, 16, 65536),  # tabulated, rows * cols = D
            (10**6, 16, 62500),  # tabulated, and -2 pi / D is inexact
            (2**20 + 1, 16, 65536),  # above the table cap, rows * cols = D - 1
            (2**20 + 1, 17, 61681),  # above the table cap, rows * cols = D
            (2**18, 3, 1000),  # power of two, fewer phases than D: masked, untabulated
            (2**31, 8, 1000),  # power of two above the table cap: masked int64 products
        ],
    )
    def test_bits_match_exponentiated_residues(self, D, rows, cols):
        # neither the phase table nor the power-of-two mask may move a
        # single bit of the sums
        rng = np.random.default_rng(D + rows)
        a = rng.integers(0, D, cols)
        k = rng.integers(0, D, rows)
        ref = np.exp((-2j * np.pi / D) * (k[:, None] * a[None, :] % D)).sum(axis=1)
        for _ in range(2):
            assert np.array_equal(exp_sum(a, D, k).view(np.int64), ref.view(np.int64))
        if D <= 2**20:
            assert not core_sets._unit_roots(D).flags.writeable

    def test_int64_boundary(self):
        # largest product 2**63 - 2**31 fits int64, 2**63 does not
        D = 2**40 + 15
        k = 2**31
        for numerators in ([3, 2**32 - 1], [3, 2**32]):
            got = exp_sum(numerators, D, [k])[0]
            assert abs(got - exact_phase_sum(numerators, D, k)) <= 2e-14


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


class TestGeometricGrid:
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
