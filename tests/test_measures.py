import cmath
import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import measures
from salemkit.cantor import build_stage, make_plan, ternary_plan
from salemkit.core_sets import IntegerSet, dft_char, geometric_grid
from salemkit.generators import power_law_set, quadratic_residues, squares_below
from salemkit.measures import (
    decay_check,
    dyadic_block_envelope,
    mu_hat,
    q_factor,
    truncation_for,
)

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


def loop_truncation(plan, u):
    """Oracle: the scalar truncation rule, one level at a time for one u."""
    au = abs(float(u))
    for p in range(plan.depth):
        if float(plan.eta_product(p)) * au / plan.M(p + 1) < measures.THETA:
            return p + 1, False
    return plan.depth, True


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
    def test_zero_argument(self):
        plan = ternary_plan(3)
        assert q_factor(plan, 1, 0) == 1.0
        assert q_factor(plan, 2, 0) == 1.0

    def test_ternary_cancellation(self):
        plan = ternary_plan(3, unit_eta=True)
        assert abs(q_factor(plan, 1, Fraction(3, 4))) < 1e-15

    def test_ternary_integral_phases(self):
        plan = ternary_plan(3, unit_eta=True)
        assert q_factor(plan, 1, 3) == 1.0

    @given(st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounded(self, u):
        plan = ternary_plan(4)
        for k in (1, 2, 4):
            assert abs(q_factor(plan, k, u)) <= 1 + 1e-12


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
                assert q_from_dft(digit_set, m) == pytest.approx(q_factor(plan, k, scaled), abs=1e-12)


class TestMuHat:
    def test_at_zero(self):
        m = ternary_plan(6)
        assert mu_hat(m, 0) == 1.0

    def test_conjugate_symmetry(self):
        m = ternary_plan(8)
        u = 17.3
        assert mu_hat(m, -u) == pytest.approx(mu_hat(m, u).conjugate(), abs=1e-12)

    def test_ternary_scaling_identity(self):
        # |mu(3^k)| = |mu(1)| for the unit-eta ternary product: under the
        # truncation rule both sides evaluate the same factor sequence
        m = ternary_plan(14, unit_eta=True)
        base = abs(mu_hat(m, 1))
        for k in range(1, 7):
            assert abs(abs(mu_hat(m, 3**k)) - base) < 1e-9

    def test_modulus_bounded_and_product_inequality(self):
        for seed in (2, 7, 13):
            plan = make_plan(power_law_set(64, 0.5, seed=seed), [16, 32, 64], 0.5,
                             c_bounds=(Fraction(1, 8), Fraction(8)))
            for u in (0.5, 3.7, 21.0, 100.0):
                value = abs(mu_hat(plan, u))
                assert value <= 1 + 1e-12
                factors, _ = truncation_for(plan, u)
                bound = 1.0
                for k in range(1, factors):
                    bound *= abs(q_factor(plan, k + 1, float(plan.eta_product(k)) * u))
                assert value <= bound + 1e-12

    def test_truncation_cap_flagged(self):
        m = ternary_plan(4, unit_eta=True)
        factors, capped = truncation_for(m, 10**5)
        assert factors == 4 and capped
        m = ternary_plan(8, unit_eta=True)
        factors, capped = truncation_for(m, 1)
        assert factors == 7 and not capped

    def test_u_max_enforced(self):
        m = ternary_plan(4)
        with pytest.raises(ValueError):
            mu_hat(m, measures.U_MAX + 1)

    def test_quadrature_agreement(self):
        # forced-depth product equals the endpoint comb; midpoint quadrature
        # of F_p differs by at most 2*pi*L_p*|u|
        plan = ternary_plan(8, unit_eta=True)
        L = float(plan.interval_length(8))
        for u in (1.0, 4.5, 33.0, 100.0):
            direct = stieltjes_quadrature(plan, 8, u)
            assert abs(mu_hat(plan, u, depth=8) - direct) <= 2 * math.pi * L * u

    def test_quadrature_agreement_random_plans(self):
        for seed in (2, 5, 11):
            plan = make_plan(
                power_law_set(32, 0.5, seed=seed), [16, 24, 32], 0.5,
                c_bounds=(Fraction(1, 8), Fraction(8)),
            )
            L = float(plan.interval_length(3))
            for u in (1.0, 7.3, 40.0):
                direct = stieltjes_quadrature(plan, 3, u)
                assert abs(mu_hat(plan, u, depth=3) - direct) <= 2 * math.pi * L * u


class TestExactPhases:
    FLOATS = (4.5, 17.3, 123456.789, 314159.2653, 2**19 + 0.1, 999999.5)

    def test_float_frequency_is_its_binary_rational(self):
        plan = squares_plan()
        for u in self.FLOATS + (-17.3,):
            assert mu_hat(plan, u) == mu_hat(plan, Fraction(u))
            for k in range(1, plan.depth + 1):
                assert q_factor(plan, k, u) == q_factor(plan, k, Fraction(u))

    @pytest.mark.parametrize("u", FLOATS)
    def test_large_float_frequencies_match_exact_oracle(self, u):
        plan = squares_plan()
        factors, _ = truncation_for(plan, u)
        assert abs(mu_hat(plan, u) - exact_phase_mu_hat(plan, factors, u)) <= 1e-15

    @given(st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**4),
        st.floats(-1e6, 1e6),
    ))
    @settings(max_examples=200, deadline=None)
    def test_bits_match_fraction_reference(self, u):
        # The integer-pair phases of mu_hat and q_factor give the bits of
        # the reduced-Fraction reference, signed zeros included (repr).
        for plan in (squares_plan(), ternary_plan(14, unit_eta=True), ternary_plan(12)):
            factors, capped = truncation_for(plan, u)
            assert (factors, capped) == loop_truncation(plan, u)
            assert repr(mu_hat(plan, u)) == repr(fraction_mu_hat(plan, u, factors))
            assert repr(mu_hat(plan, u, depth=plan.depth)) == repr(fraction_mu_hat(plan, u, plan.depth))
            for k in range(1, plan.depth + 1):
                assert repr(q_factor(plan, k, u)) == repr(fraction_q_factor(plan, k, u))

    def test_integer_frequencies_match_exact_oracle(self):
        plan = ternary_plan(10)
        for u in (2, 3**7, 10**5 + 1, Fraction(7, 3)):
            factors, _ = truncation_for(plan, u)
            assert abs(mu_hat(plan, u) - exact_phase_mu_hat(plan, factors, u)) <= 1e-15


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
        assert report.envelope == tuple(dyadic_block_envelope([(u, abs(mu_hat(m, u))) for u in grid]))

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
        assert first.numerator * 2 < 2**63 and truncation_for(plan, first) == (plan.depth, True)
        assert product.denominator * plan.M(1) <= 2**53 and product.numerator < 2**63 <= product.numerator * 2
        assert numerator.denominator * plan.M(1) <= 2**53 and numerator.numerator >= 2**63
        assert all(2 <= u <= measures.U_MAX for u in self.CROSSING)

    def test_spectrum_samples_equal_mu_hat(self):
        m = ternary_plan(8)
        for grid in (list(range(40, 1, -1)), geometric_grid(2.0, 500.0, 8)):
            report = decay_check(m, grid, LOG23)
            assert [s.frequency for s in report.spectrum] == sorted(float(u) for u in grid)
            for sample, u in zip(report.spectrum, sorted(grid)):
                assert sample.value == mu_hat(m, u)
            assert "spectrum" not in report.as_dict()

    def test_fraction_grid_sampled_exactly(self):
        # rational frequencies are sampled at themselves, not at the
        # nearest binary rationals; the report lists them as floats
        m = ternary_plan(14, unit_eta=True)
        grid = [Fraction(3**k, 2) + Fraction(1, 3) for k in range(2, 13)]
        report = decay_check(m, grid, LOG23)
        for sample, u in zip(report.spectrum, grid):
            assert sample.frequency == float(u)
            assert sample.value == mu_hat(m, u)
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

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            q_factor(ternary_plan(2), 3, 1.0)
