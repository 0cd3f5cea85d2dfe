import cmath
import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import measures
from salemkit.cantor import Level, LevelPlan, build_stage, make_plan, ternary_plan
from salemkit.core_sets import IntegerSet, dft_char, geometric_grid
from salemkit.generators import power_law_set, quadratic_residues, squares_below
from salemkit.measures import decay_check, dyadic_block_envelope, mu_hat
from test_cantor import small_plans

LOG23 = math.log(2) / math.log(3)


def q_from_dft(A, m):
    """Oracle for the level factors: (N/d) times the normalized spectrum of
    A at m.  Agrees with the level-k factor at integer arguments scaled by
    M_{k-1}, since u = m * M_{k-1} turns the per-digit phase u*a/M_k into
    m*a/N_k."""
    if len(A) == 0:
        raise ValueError("empty digit set")
    return (A.horizon / len(A)) * dft_char(A, [m])[0].value


def stieltjes_quadrature(plan, depth, u):
    """Independent oracle: midpoint rule over the stage intervals, exact for
    a density that is constant per interval up to the interval width."""
    stage = build_stage(plan, depth)
    L = stage.interval_length
    weight = 1.0 / len(stage.left_endpoints)
    total = 0j
    for x in stage.left_endpoints:
        mid = float(x + L / 2)
        total += cmath.exp(-2j * math.pi * u * mid)
    return weight * total


def exact_phase_mu_hat(plan, factors, u):
    """Oracle: the first ``factors`` factors of the product, each phase
    u * eta_1...eta_{k-1} * a / M_k reduced mod 1 as a Fraction, with the
    scales rebuilt level by level from the plan's levels."""
    q = Fraction(u)
    value = 1 + 0j
    eta, M = Fraction(1), 1
    for level in plan.levels[:factors]:
        M *= level.size
        terms = [cmath.exp(-2j * math.pi * float(q * eta * a / M % 1)) for a in level.digits]
        value *= sum(terms) / len(level.digits)
        eta *= level.eta
    return value


def loop_level_sum(digits, p, D):
    """Oracle: the per-digit loop of the scalar transform.  Each phase is
    the residue p*a mod D over D, one correctly rounded float, and the
    terms are added in digit order as Python complexes."""
    total = 0j
    for a in digits:
        total += cmath.exp(-2j * math.pi * (p * a % D / D))
    return total / len(digits)


def mu(plan, u, *, depth=None):
    """mu_hat at a single frequency."""
    return complex(mu_hat(plan, [u], depth=depth)[0])


def loop_truncation(plan, u):
    """Oracle: the scalar truncation rule, one level at a time for one u:
    the number of product factors to evaluate at u, and whether the plan's
    depth cut the tail while the next factor was still active."""
    au = abs(float(u))
    for p in range(plan.depth):
        if float(plan.eta_product(p)) * au / plan.M(p + 1) < measures.THETA:
            return p + 1, False
    return plan.depth, True


def exact(u):
    """u as the exact rational it holds, in Python ints: a numpy integer's
    own Fraction keeps a numpy numerator, whose products wrap."""
    return Fraction(int(u)) if isinstance(u, np.integer) else Fraction(u)


def bits(z):
    """The exact bits of a complex, signs of zeros included."""
    return z.real.hex(), z.imag.hex()


def loop_mu_hat(plan, u, factors):
    """Oracle: the scalar factor product at one u.  Factor k+1 takes
    eta_1...eta_k * u / M_{k+1} as an unreduced integer pair, and the
    product starts from the first factor (reduce, no start value 1)."""
    q = Fraction(u)
    return functools.reduce(operator.mul, (
        loop_level_sum(
            plan.levels[k].digits,
            q.numerator * plan.eta_product(k).numerator,
            q.denominator * plan.eta_product(k).denominator * plan.M(k + 1),
        )
        for k in range(factors)
    ))


def fraction_q_factor(plan, k, u):
    """Reference: the level factor as written with Fraction arguments, each
    phase the residue of the reduced numerator of u times a mod s*M_k."""
    q = Fraction(u)
    return loop_level_sum(plan.levels[k - 1].digits, q.numerator, q.denominator * plan.M(k))


def fraction_mu_hat(plan, u, factors):
    """Reference: the factor product with each argument eta_1...eta_k * u
    built as a reduced Fraction and passed to :func:`fraction_q_factor`."""
    q = Fraction(u)
    value = fraction_q_factor(plan, 1, q)
    for k in range(1, factors):
        value *= fraction_q_factor(plan, k + 1, plan.eta_product(k) * q)
    return value


@st.composite
def plans_with_depth(draw):
    """A small plan and a depth within it."""
    plan = draw(small_plans())
    return plan, draw(st.integers(1, plan.depth))


@st.composite
def unsorted_frequencies(draw):
    """An unsorted list of ints, floats and Fractions in [-10**6, 10**6],
    0 and repeated entries among them."""
    us = draw(st.lists(st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**4),
        st.floats(-1e6, 1e6),
    ), min_size=1, max_size=16))
    us += [0] + us[: draw(st.integers(1, len(us)))]
    return draw(st.permutations(us))


def wide_eta_plan():
    """eta = 1 - 2**-41 at every level, so the scale eta_1...eta_k gains 41
    bits of numerator and denominator a level.  At level 2, p * a leaves
    int64 for integer frequencies above 2**63 / (7 * 2**41), about 6e5,
    while D = 2**47 fits; at level 3, D = 2**91 passes 2**53 too."""
    return LevelPlan(tuple(Level(8, (0, 3, 7), Fraction(2**41 - 1, 2**41)) for _ in range(6)), 0.5)


def past_int64_plan():
    """The plan CI's past-int64 pipeline writes by hand: at level 3, D =
    9 * 1000003**3 passes 2**53 while p stays small.  Under the truncation
    rule integer frequencies stop at level 2, so only a forced depth
    reaches it."""
    return LevelPlan(tuple(Level(1000003, (0, 500001), Fraction(1, 3)) for _ in range(4)), 0.05)


def squares_plan():
    return make_plan(squares_below(10**4), [100, 100, 100, 100], 0.5)


def random_plan():
    """A power-law plan whose padding factors eta_k are not 1."""
    return make_plan(power_law_set(64, 0.5, seed=5), [16, 32, 64], 0.5, c_bounds=(Fraction(1, 8), Fraction(8)))


def linear_stage_cdf(plan, k, x):
    """F_k(x) by its definition: every stage interval contributes its
    covered share of 1/d, clamped to [0, 1], in exact rationals."""
    stage = build_stage(plan, k)
    L = stage.interval_length
    share = sum(min(max((Fraction(x) - left) / L, Fraction(0)), Fraction(1)) for left in stage.left_endpoints)
    return float(share / len(stage.left_endpoints))


class TestQFactor:
    """The level factors through the forced-depth transform: at depth 1 it
    is the first factor Q_1 itself, and at depth k the product of the
    first k factors."""

    def test_zero_argument(self):
        plan = ternary_plan(3)
        assert mu(plan, 0, depth=1) == 1.0
        assert mu(plan, 0, depth=2) == 1.0

    def test_ternary_cancellation(self):
        plan = ternary_plan(3, unit_eta=True)
        assert abs(mu(plan, Fraction(3, 4), depth=1)) < 1e-15

    def test_ternary_integral_phases(self):
        plan = ternary_plan(3, unit_eta=True)
        assert mu(plan, 3, depth=1) == 1.0

    @given(st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounded(self, u):
        plan = ternary_plan(4)
        for k in (1, 2, 4):
            assert abs(mu(plan, u, depth=k)) <= 1 + 1e-12


class TestQFromDft:
    def test_two_point_values(self):
        A = IntegerSet((0, 2), 4)
        assert abs(q_from_dft(A, 1)) < 1e-15
        assert q_from_dft(A, 0) == pytest.approx(1.0)

    def test_quadratic_residues_against_naive(self):
        A = quadratic_residues(101)
        naive = sum(cmath.exp(-2j * math.pi * n * 7 / 101) for n in A.elements) / len(A)
        assert abs(q_from_dft(A, 7) - naive) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            q_from_dft(IntegerSet((), 8), 1)

    def test_agrees_with_level_factor_at_scaled_arguments(self):
        A = power_law_set(64, 0.5, seed=5)
        plan = make_plan(A, [16, 32, 64], 0.5, c_bounds=(Fraction(1, 8), Fraction(8)))
        for k in (1, 2, 3):
            level = plan.levels[k - 1]
            digit_set = IntegerSet(level.digits, level.size)
            for m in (1, 3, 7):
                scaled = m * plan.M(k - 1)
                assert q_from_dft(digit_set, m) == pytest.approx(fraction_q_factor(plan, k, scaled), abs=1e-12)


class TestMuHat:
    def test_at_zero(self):
        m = ternary_plan(6)
        assert mu(m, 0) == 1.0

    def test_conjugate_symmetry(self):
        m = ternary_plan(8)
        minus, plus = mu_hat(m, [-17.3, 17.3])
        assert minus == pytest.approx(plus.conjugate(), abs=1e-12)

    def test_ternary_scaling_identity(self):
        # |mu(3^k)| = |mu(1)| for the unit-eta ternary product: under the
        # truncation rule both sides evaluate the same factor sequence
        m = ternary_plan(14, unit_eta=True)
        base, *scaled = np.abs(mu_hat(m, [1] + [3**k for k in range(1, 7)]))
        assert all(abs(value - base) < 1e-9 for value in scaled)

    def test_modulus_bounded_and_product_inequality(self):
        for seed in (2, 7, 13):
            plan = make_plan(power_law_set(64, 0.5, seed=seed), [16, 32, 64], 0.5,
                             c_bounds=(Fraction(1, 8), Fraction(8)))
            for u in (0.5, 3.7, 21.0, 100.0):
                value = abs(mu(plan, u))
                assert value <= 1 + 1e-12
                factors, _ = loop_truncation(plan, u)
                bound = 1.0
                for k in range(1, factors):
                    bound *= abs(fraction_q_factor(plan, k + 1, float(plan.eta_product(k)) * u))
                assert value <= bound + 1e-12

    def test_truncation_cap_flagged(self):
        # the factor counts and cap flags that decay_check reports
        cases = ((ternary_plan(4, unit_eta=True), 10**5, (4, True)), (ternary_plan(8, unit_eta=True), 1, (7, False)))
        for m, u, want in cases:
            counts, capped = measures._factor_counts(m, [u])
            assert (int(counts[0]), bool(capped[0])) == want == loop_truncation(m, u)

    def test_u_max_enforced(self):
        m = ternary_plan(4)
        with pytest.raises(ValueError):
            mu_hat(m, [2, measures.U_MAX + 1, 3])
        with pytest.raises(ValueError):
            mu_hat(m, [-measures.U_MAX - 1], depth=2)
        # compared exactly, so a frequency too large for a float is refused
        # too, not cut by an OverflowError
        for huge in (10**400, Fraction(-(10**400), 3)):
            with pytest.raises(ValueError, match="largest supported frequency"):
                mu_hat(m, [2, huge])
        assert mu_hat(m, [measures.U_MAX, -measures.U_MAX]).shape == (2,)

    @given(plans_with_depth(), unsorted_frequencies())
    @example((ternary_plan(3), 2), [])
    @example((ternary_plan(3), 2), [5, -2.5, Fraction(1, 3), 0, 5, 2 * measures.U_MAX])
    @settings(max_examples=100, deadline=None)
    def test_grid_in_any_order_matches_fraction_reference(self, case, us):
        # Each value of one grid call has the bits of the reduced-Fraction
        # reference at its frequency, signed zeros included (repr), with the
        # scalar rule's factor count or the forced depth.  One |u| above
        # U_MAX refuses the whole call.
        plan, depth = case
        for forced in (None, depth):
            if any(abs(u) > measures.U_MAX for u in us):
                with pytest.raises(ValueError, match="largest supported frequency"):
                    mu_hat(plan, us, depth=forced)
                continue
            values = mu_hat(plan, us, depth=forced)
            assert isinstance(values, np.ndarray) and values.shape == (len(us),)
            for u, value in zip(us, values.tolist()):
                factors = loop_truncation(plan, u)[0] if forced is None else forced
                assert repr(value) == repr(fraction_mu_hat(plan, u, factors))

    def test_quadrature_agreement(self):
        # forced-depth product equals the endpoint comb; midpoint quadrature
        # of F_p differs by at most 2*pi*L_p*|u|
        plan = ternary_plan(8, unit_eta=True)
        L = float(plan.interval_length(8))
        for u in (1.0, 4.5, 33.0, 100.0):
            direct = stieltjes_quadrature(plan, 8, u)
            assert abs(mu(plan, u, depth=8) - direct) <= 2 * math.pi * L * u

    def test_quadrature_agreement_random_plans(self):
        for seed in (2, 5, 11):
            plan = make_plan(
                power_law_set(32, 0.5, seed=seed), [16, 24, 32], 0.5,
                c_bounds=(Fraction(1, 8), Fraction(8)),
            )
            L = float(plan.interval_length(3))
            for u in (1.0, 7.3, 40.0):
                direct = stieltjes_quadrature(plan, 3, u)
                assert abs(mu(plan, u, depth=3) - direct) <= 2 * math.pi * L * u


class TestExactPhases:
    FLOATS = (4.5, 17.3, 123456.789, 314159.2653, 2**19 + 0.1, 999999.5)

    def test_float_frequency_is_its_binary_rational(self):
        plan = squares_plan()
        us = self.FLOATS + (-17.3,)
        exact = [Fraction(u) for u in us]
        for depth in (None, *range(1, plan.depth + 1)):
            assert mu_hat(plan, us, depth=depth).tolist() == mu_hat(plan, exact, depth=depth).tolist()

    @pytest.mark.parametrize("u", FLOATS)
    def test_large_float_frequencies_match_exact_oracle(self, u):
        plan = squares_plan()
        factors, _ = loop_truncation(plan, u)
        assert abs(mu(plan, u) - exact_phase_mu_hat(plan, factors, u)) <= 1e-15

    @given(st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**4),
        st.floats(-1e6, 1e6),
    ))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_fraction_reference(self, u):
        # The integer-pair phases of mu_hat give the bits of the
        # reduced-Fraction reference, signed zeros included (repr), and at
        # depth 1 the bits of the first factor.
        for plan in (squares_plan(), ternary_plan(14, unit_eta=True), ternary_plan(12)):
            factors, capped = loop_truncation(plan, u)
            counts, caps = measures._factor_counts(plan, [u])
            assert (int(counts[0]), bool(caps[0])) == (factors, capped)
            assert repr(mu(plan, u)) == repr(fraction_mu_hat(plan, u, factors))
            assert repr(mu(plan, u, depth=plan.depth)) == repr(fraction_mu_hat(plan, u, plan.depth))
            assert repr(mu(plan, u, depth=1)) == repr(fraction_q_factor(plan, 1, u))

    def test_integer_frequencies_match_exact_oracle(self):
        plan = ternary_plan(10)
        for u in (2, 3**7, 10**5 + 1, Fraction(7, 3)):
            factors, _ = loop_truncation(plan, u)
            assert abs(mu(plan, u) - exact_phase_mu_hat(plan, factors, u)) <= 1e-15


class TestStageCdf:
    """Properties of F_k, checked on the exact oracle ``linear_stage_cdf``."""

    def test_normalization(self):
        m = ternary_plan(5)
        for k in range(6):
            assert linear_stage_cdf(m, k, 0) == 0.0
            assert linear_stage_cdf(m, k, 1) == 1.0

    def test_first_interval_carries_half(self):
        m = ternary_plan(3, unit_eta=True)
        assert linear_stage_cdf(m, 1, Fraction(1, 3)) == pytest.approx(0.5)

    def test_first_of_four(self):
        m = ternary_plan(3, unit_eta=True)
        assert linear_stage_cdf(m, 2, Fraction(1, 9)) == pytest.approx(0.25)

    def test_monotone_and_cauchy(self):
        # F_k non-decreasing; sup |F_k - F_{k+1}| <= 1/(d_1...d_k)
        m = ternary_plan(6)
        xs = [Fraction(i, 81) for i in range(82)]
        for k in (2, 3, 4):
            vals = [linear_stage_cdf(m, k, x) for x in xs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
            nxt = [linear_stage_cdf(m, k + 1, x) for x in xs]
            bound = 1.0 / 2**k
            assert max(abs(a - b) for a, b in zip(vals, nxt)) <= bound + 1e-12


class TestDecayCheck:
    def test_full_digit_plan_hits_cap(self):
        # all digits kept: the endpoint comb is the full grid, every factor
        # vanishes at nonzero integers, and the envelope is all zeros
        A = IntegerSet(tuple(range(8)), 8)
        plan = make_plan(A, [8, 8, 8], 1.0, unit_eta=True)
        report = decay_check(plan, list(range(2, 64)), 1.0)
        assert report.alpha_hat == 1.0
        assert report.passed

    def test_factor_counts_fold_the_scalar_rule(self, monkeypatch):
        # The grid is evaluated with one array of factor counts: it, the
        # deepest count and the cap flag are the scalar rule folded over
        # the grid.  The plan caps the grid's upper part only.
        seen = []
        original = measures._transform
        monkeypatch.setattr(measures, "_transform", lambda m, us, counts: seen.append(counts.tolist()) or original(m, us, counts))
        m = ternary_plan(10, unit_eta=True)
        grid = list(range(2, 200))
        report = decay_check(m, grid, LOG23)
        rule = [loop_truncation(m, u) for u in grid]
        assert 0 < sum(capped for _, capped in rule) < len(grid)
        assert seen == [[factors for factors, _ in rule]]
        assert report.truncation_depth_used == max(factors for factors, _ in rule)
        assert report.capped == any(capped for _, capped in rule)
        assert report.envelope == tuple(dyadic_block_envelope(list(zip(grid, np.abs(mu_hat(m, grid)).tolist()))))

    # Both residue paths on the unit ternary plan (digits 0 and 2): at
    # s = 2**48, D = s * M_{k+1} passes 2**53 from level 4 on, after three
    # int64 levels; p * a passes 2**63 at level 1 with p = 2**62 + 1, and
    # p itself with p = 2**70 + 1.
    CROSSING = (Fraction(2**61 + 1, 2**48), Fraction(2**62 + 1, 2**43), Fraction(2**70 + 1, 2**51))

    @given(st.lists(st.one_of(
        st.integers(2, 10**6),
        st.fractions(2, 10**6, max_denominator=2**60),
        st.floats(2, 1e6),
    ), min_size=1, max_size=16))
    @example([CROSSING[0]])
    @example(list(CROSSING[1:]))
    @example([10**6])
    @example([123456.789, 2.0**19 + 0.1, 999999.5, 17.3])
    @settings(max_examples=100, deadline=None)
    def test_spectrum_bits_match_loop_oracle(self, grid):
        # repr, so the sign of every zero counts; the fit needs four blocks
        grid = grid + [2, 5, 9, 17]
        for plan in (squares_plan(), ternary_plan(14, unit_eta=True), random_plan()):
            report = decay_check(plan, grid, 0.5)
            for sample, u in zip(report.spectrum, sorted(grid)):
                factors, _ = loop_truncation(plan, u)
                assert repr(sample.value) == repr(loop_mu_hat(plan, u, factors))

    def test_crossing_examples_cross(self):
        plan = ternary_plan(14, unit_eta=True)
        first, product, numerator = self.CROSSING
        assert first.denominator * plan.M(3) <= 2**53 < first.denominator * plan.M(4)
        assert first.numerator * 2 < 2**63 and loop_truncation(plan, first) == (plan.depth, True)
        assert product.denominator * plan.M(1) <= 2**53 and product.numerator < 2**63 <= product.numerator * 2
        assert numerator.denominator * plan.M(1) <= 2**53 and numerator.numerator >= 2**63
        assert all(2 <= u <= measures.U_MAX for u in self.CROSSING)

    def test_spectrum_samples_equal_mu_hat(self):
        m = ternary_plan(8)
        for grid in (list(range(40, 1, -1)), geometric_grid(2.0, 500.0, 8)):
            report = decay_check(m, grid, LOG23)
            assert [s.frequency for s in report.spectrum] == sorted(float(u) for u in grid)
            assert [s.value for s in report.spectrum] == mu_hat(m, sorted(grid)).tolist()
            assert "spectrum" not in report.as_dict()

    def test_fitted_moduli_are_complex_abs(self, monkeypatch):
        # the envelope is fitted from abs(value) of every sample, to the
        # bit; numpy's complex abs rounds about 1 % of these otherwise
        fitted = []
        envelope = measures.dyadic_block_envelope
        monkeypatch.setattr(measures, "dyadic_block_envelope", lambda samples: fitted.append(samples) or envelope(samples))
        for plan, grid in ((ternary_plan(14, unit_eta=True), geometric_grid(2, 3**7, 2048, integers=True)),
                           (squares_plan(), geometric_grid(2.0, 10**5, 64))):
            report = decay_check(plan, grid, 0.5)
            samples = fitted.pop()
            assert [u for u, _ in samples] == [u if isinstance(u, int) else float(u) for u in sorted(grid)]
            assert [mag.hex() for _, mag in samples] == [abs(s.value).hex() for s in report.spectrum]
            assert all(type(mag) is float for _, mag in samples)

    def test_fraction_grid_sampled_exactly(self):
        # rational frequencies are sampled at themselves, not at the
        # nearest binary rationals; the report lists them as floats
        m = ternary_plan(14, unit_eta=True)
        grid = [Fraction(3**k, 2) + Fraction(1, 3) for k in range(2, 13)]
        report = decay_check(m, grid, LOG23)
        for sample, u, value in zip(report.spectrum, grid, mu_hat(m, grid).tolist()):
            assert sample.frequency == float(u)
            assert sample.value == value
        assert all(type(u) is float for u, _ in report.envelope)

    def test_ternary_negative_control(self):
        # flat envelope along powers of 3 pins the fitted exponent far below
        # the plan's dimension; the check must fail its target
        m = ternary_plan(14, unit_eta=True)
        grid = list(range(2, 3**8 + 1))
        report = decay_check(m, grid, LOG23)
        assert not report.passed
        assert report.alpha_hat == pytest.approx(2 * -math.log(0.3714373567) / math.log(3**8), abs=0.01)

    def test_random_plans_exponent_distribution(self):
        # beta = 0.5 plans over 60 seeds: frozen distribution of the fitted
        # exponent.  First-factor resonances (u a multiple of N_1 with the
        # per-level digit count only ~16) floor the envelope at d**(-1/2)
        # draws, so the median sits near 0.32 rather than at beta.
        grid = geometric_grid(2, 4096, 16)
        alphas = []
        for seed in range(60):
            try:
                plan = make_plan(power_law_set(64, 0.5, seed=seed), [64, 64, 64], 0.5)
            except ValueError:
                continue
            report = decay_check(plan, grid, 0.5)
            alphas.append(report.alpha_hat)
        assert len(alphas) >= 50
        alphas.sort()
        median = alphas[len(alphas) // 2]
        assert 0.25 <= median <= 0.40
        assert sum(a >= 0.15 for a in alphas) >= 0.8 * len(alphas)

    def test_envelope_takes_block_maxima(self):
        samples = [(2.0, 0.1), (3.0, 0.5), (4.0, 0.2), (7.9, 0.9)]
        env = dyadic_block_envelope(samples)
        assert env == [(3.0, 0.5), (7.9, 0.9)]

    def test_envelope_block_of_float_below_power_of_two(self):
        # floor(log2(u)) rounds the largest float below 2^t up to t
        for t in range(3, 21):
            below = math.nextafter(2.0**t, 0)
            assert dyadic_block_envelope([(below, 0.5), (2.0**t, 0.1)]) == [(below, 0.5), (2.0**t, 0.1)]
            assert dyadic_block_envelope([(2**t - 1, 0.5), (2**t, 0.1)]) == [(2**t - 1, 0.5), (2**t, 0.1)]

    def test_shallow_plan_flagged_capped(self):
        m = ternary_plan(3, unit_eta=True)
        report = decay_check(m, list(range(2, 200)), 0.5)
        assert report.capped
        assert report.truncation_depth_used == 3

    def test_gap_values_constant(self):
        # F is flat across the middle gap of the unit-eta plan
        m = ternary_plan(4, unit_eta=True)
        for x in (Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)):
            assert linear_stage_cdf(m, 2, x) == 0.5


# Integer, numpy-integer, float and Fraction frequencies, mixed in one grid.
def mixed_frequencies(lo, hi):
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(np.int64),
        st.floats(lo, hi),
        st.fractions(lo, hi, max_denominator=2**40),
    )


class TestIntegerPairArrays:
    """The grid is read once as arrays of integer pairs, and each level
    takes int64 or object arrays by the fit rule: every value keeps the
    bits of the scalar cmath product, whatever type holds its frequency and
    wherever the pairs leave int64."""

    @given(st.lists(mixed_frequencies(-10**6, 10**6), min_size=1, max_size=12))
    @example([10**6, np.int64(10**6), 5 * 10**5, np.int64(-999_999), 0])
    @example([Fraction(2**59 + 1, 2**40), 123456.789, np.int64(2**19 + 1)])
    # Numerators of -2**63, whose int64 abs would wrap, and below it.
    @example([Fraction(-(2**63), 3**28), -Fraction(2**70 + 1, 2**51), 5])
    @settings(max_examples=60, deadline=None)
    def test_mu_hat_bits_match_scalar_oracle(self, us):
        for plan in (wide_eta_plan(), past_int64_plan()):
            for depth in (None, plan.depth):
                values = mu_hat(plan, us, depth=depth).tolist()
                for u, value in zip(us, values):
                    factors = loop_truncation(plan, u)[0] if depth is None else depth
                    assert bits(value) == bits(loop_mu_hat(plan, exact(u), factors))

    @given(st.lists(mixed_frequencies(2, 10**6), min_size=1, max_size=12))
    @example([10**6, np.int64(999_999), 600_000.5, Fraction(10**6 - 1, 3)])
    @settings(max_examples=60, deadline=None)
    def test_decay_check_bits_match_scalar_oracle(self, grid):
        grid = grid + [2, 5, 9, 17]
        for plan in (wide_eta_plan(), past_int64_plan()):
            report = decay_check(plan, grid, 0.5)
            for sample, u in zip(report.spectrum, sorted(grid)):
                assert sample.frequency == float(u)
                assert bits(sample.value) == bits(loop_mu_hat(plan, exact(u), loop_truncation(plan, u)[0]))

    def test_numpy_integer_grid_equals_python_ints(self):
        us = [2, 999, 600_000, 10**6, -10**6]
        for plan in (wide_eta_plan(), past_int64_plan()):
            for depth in (None, plan.depth):
                want = mu_hat(plan, us, depth=depth).tolist()
                assert mu_hat(plan, np.array(us), depth=depth).tolist() == want
                assert mu_hat(plan, [np.int64(u) for u in us], depth=depth).tolist() == want

    @pytest.mark.parametrize("plan, us, depth, want", [
        # All six levels: p * a leaves int64 at level 2 for u = 10**6 only,
        # D at level 3.
        (wide_eta_plan(), [1000, 5 * 10**5], None, [np.int64] * 2 + [np.object_] * 4),
        (wide_eta_plan(), [1000, 10**6], None, [np.int64] + [np.object_] * 5),
        (wide_eta_plan(), [np.int64(1000), np.int64(10**6)], None, [np.int64] + [np.object_] * 5),
        # D passes 2**53 at level 3, reached only at a forced depth.
        (past_int64_plan(), [2000, 10**6], None, [np.int64, np.int64]),
        (past_int64_plan(), [2000, 10**6], 4, [np.int64, np.int64, np.object_, np.object_]),
    ])
    def test_pairs_leave_int64_partway(self, monkeypatch, plan, us, depth, want):
        seen = []
        original = measures._level_sums

        def spy(digits, p, D):
            assert p.dtype == D.dtype
            seen.append(p.dtype.type)
            return original(digits, p, D)

        monkeypatch.setattr(measures, "_level_sums", spy)
        mu_hat(plan, us, depth=depth)
        assert seen == want
