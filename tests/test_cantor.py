import math
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemkit.cantor import (
    Level,
    LevelPlan,
    box_dimension,
    build_stage,
    default_eta,
    make_plan,
    ternary_plan,
)
from salemkit.core_sets import IntegerSet
from salemkit.generators import power_law_set, squares_below

LOG23 = math.log(2) / math.log(3)


def point_from_digits(plan, digits):
    """Oracle for stage endpoints: the exact truncated digit expansion
    sum_j eta_1...eta_{j-1} * a_j / M_j of the point selected by digit
    values (one member of each level's digit set, not indices)."""
    if len(digits) > plan.depth:
        raise ValueError("more digits than plan levels")
    x = Fraction(0)
    for j, a in enumerate(digits, 1):
        if a not in plan.levels[j - 1].digits:
            raise ValueError(f"digit {a} is not in the level-{j} digit set")
        x += plan.eta_product(j - 1) * Fraction(a, plan.M(j))
    return x


@st.composite
def small_plans(draw, max_depth=6):
    depth = draw(st.integers(2, max_depth))
    levels = []
    for k in range(1, depth + 1):
        size = draw(st.integers(3, 7))
        count = draw(st.integers(2, min(3, size)))
        digits = tuple(sorted(draw(st.sets(st.integers(0, size - 1), min_size=count, max_size=count))))
        unit = draw(st.booleans())
        levels.append(Level(size, digits, Fraction(1) if unit else default_eta(k)))
    beta = draw(st.floats(0.3, 1.0))
    return LevelPlan(tuple(levels), beta, (Fraction(1, 100), Fraction(100)))


def stage_fractions(stage):
    """The stage's left endpoints n/D and its length as exact rationals."""
    D = stage.denominator
    return [Fraction(n, D) for n in stage.numerators], Fraction(stage.length, D)


def check_stage_invariants(plan, depth):
    """Exact disjointness of siblings and exact nesting in the parent stage,
    on the integers over D read as rationals."""
    stage = build_stage(plan, depth)
    lefts, L = stage_fractions(stage)
    assert L == plan.interval_length(depth)
    assert tuple(lefts) == stage.left_endpoints and L == stage.interval_length
    for x, y in zip(lefts, lefts[1:]):
        assert x + L <= y
    if depth >= 1:
        parent_lefts, Lp = stage_fractions(build_stage(plan, depth - 1))
        for x in lefts:
            i = bisect_right(parent_lefts, x) - 1
            assert i >= 0
            xp = parent_lefts[i]
            assert xp <= x and x + L <= xp + Lp


class TestMakePlan:
    def test_squares_level(self):
        plan = make_plan(squares_below(100), [100], 0.5)
        assert plan.digit_count(1) == 10
        assert plan.c_value(1) == pytest.approx(1.0)

    def test_ternary_constant_c(self):
        plan = ternary_plan(5)
        for k in range(1, 6):
            assert plan.c_value(k) == pytest.approx(1.0, abs=1e-12)

    def test_random_plans_in_bounds(self):
        # Monte Carlo over 200 seeds: all levels within the default bounds
        # in at least 95% of draws
        ok = 0
        for seed in range(200):
            A = power_law_set(128, 0.6, seed=seed)
            try:
                make_plan(A, [32, 64, 128], 0.6)
                ok += 1
            except ValueError:
                pass
        assert ok >= 190

    def test_empty_level_rejected(self):
        A = IntegerSet((50, 60), 128)
        with pytest.raises(ValueError, match="level 1"):
            make_plan(A, [32, 64, 128], 0.5)

    def test_out_of_bounds_named(self):
        A = IntegerSet(tuple(range(64)), 64)
        with pytest.raises(ValueError, match="level 1"):
            make_plan(A, [64], 0.1)

    def test_decreasing_horizons_rejected(self):
        with pytest.raises(ValueError):
            make_plan(squares_below(100), [100, 50], 0.5)


class TestPlanScales:
    @given(small_plans())
    @settings(max_examples=25, deadline=None)
    def test_prefix_products(self, plan):
        for k in range(plan.depth + 1):
            assert plan.M(k) == math.prod(level.size for level in plan.levels[:k])
            assert plan.eta_product(k) == math.prod((level.eta for level in plan.levels[:k]), start=Fraction(1))

    @given(small_plans())
    @settings(max_examples=25, deadline=None)
    def test_equal_plans_compare_and_hash_equal(self, plan):
        copy = LevelPlan(plan.levels, plan.beta, plan.c_bounds)
        assert copy == plan and hash(copy) == hash(plan)
        assert {plan: "cached"}[copy] == "cached"
        assert LevelPlan(plan.levels[:-1], plan.beta, plan.c_bounds) != plan


class TestBuildStage:
    def test_middle_thirds_step(self):
        stage = build_stage(ternary_plan(2, unit_eta=True), 1)
        assert stage.left_endpoints == (Fraction(0), Fraction(2, 3))
        assert stage.interval_length == Fraction(1, 3)

    def test_default_eta_step(self):
        stage = build_stage(ternary_plan(2), 1)
        assert stage.left_endpoints == (Fraction(0), Fraction(2, 3))
        assert stage.interval_length == Fraction(1, 4)

    def test_depth_zero_is_unit_interval(self):
        stage = build_stage(ternary_plan(2), 0)
        assert stage.left_endpoints == (Fraction(0),)
        assert stage.interval_length == Fraction(1)

    def test_depth_beyond_plan_rejected(self):
        with pytest.raises(ValueError):
            build_stage(ternary_plan(2), 3)

    def test_cardinality(self):
        plan = ternary_plan(6)
        for k in range(7):
            assert len(build_stage(plan, k).left_endpoints) == 2**k

    @given(small_plans())
    @settings(max_examples=25, deadline=None)
    def test_nesting_and_disjointness(self, plan):
        for depth in range(1, plan.depth + 1):
            check_stage_invariants(plan, depth)


class TestPointFromDigits:
    def test_all_zero_digits(self):
        assert point_from_digits(ternary_plan(3), (0, 0, 0)) == 0

    def test_unit_eta_expansion(self):
        plan = ternary_plan(2, unit_eta=True)
        assert point_from_digits(plan, (2, 2)) == Fraction(8, 9)

    def test_default_eta_expansion(self):
        plan = ternary_plan(2)
        assert point_from_digits(plan, (2, 2)) == Fraction(5, 6)

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            point_from_digits(ternary_plan(2), (1,))

    @given(small_plans(max_depth=5))
    @settings(max_examples=20, deadline=None)
    def test_matches_stage_endpoints(self, plan):
        depth = plan.depth
        stage = build_stage(plan, depth)
        endpoints = {
            point_from_digits(plan, word)
            for word in product(*(lvl.digits for lvl in plan.levels[:depth]))
        }
        lefts, L = stage_fractions(stage)
        assert endpoints == set(lefts)
        assert L == plan.interval_length(depth)


class TestBoxDimension:
    def test_ternary_exact_all_depths(self):
        plan = ternary_plan(12)
        for k in range(2, 13):
            assert abs(box_dimension(plan, k) - LOG23) < 1e-12

    def test_full_plan(self):
        A = IntegerSet(tuple(range(8)), 8)
        plan = make_plan(A, [8, 8, 8], 1.0)
        assert box_dimension(plan, 3) == pytest.approx(1.0, abs=1e-15)

    def test_squares_plan(self):
        plan = make_plan(squares_below(100), [100, 100, 100], 0.5)
        assert box_dimension(plan, 3) == pytest.approx(0.5, abs=1e-15)

    def test_shallow_depth_rejected(self):
        with pytest.raises(ValueError):
            box_dimension(ternary_plan(3), 1)

    def test_tracks_fitted_density(self):
        # plan built from a fitted-density set: box dimension within 0.05 of
        # the fit whenever the premise holds (every level's c near one, M
        # large); draws violating the premise are skipped, not asserted
        from salemkit.core_sets import fractional_density

        horizons = [64, 256, 1024, 4096]
        checked = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = np.arange(1, 4096)
            mask = rng.random(4095) < 0.7 * n ** (0.7 - 1.0)
            A = IntegerSet(tuple(int(v) for v in n[mask]), 4096)
            est = fractional_density(A, horizons)
            plan = make_plan(A, horizons, est.exponent, c_bounds=(Fraction(1, 8), Fraction(8)))
            if not all(3 / 4 <= plan.c_value(k) <= 4 / 3 for k in range(1, 5)):
                continue
            assert plan.M(4) >= 10**6
            assert abs(box_dimension(plan, 4) - est.exponent) < 0.05
            checked += 1
        assert checked >= 3
