from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemkit.aps import (
    APWitness,
    GridAP,
    SeparationError,
    check_thm32_hypotheses,
    dyadic_embed,
    find_ap_integers,
    find_ap_points,
    grid_ap_descent,
)
from salemkit.core_sets import IntegerSet
from salemkit.generators import power_law_set


def brute_force_3aps(A):
    """Oracle: every (first, second) element pair, membership of the third."""
    members = set(A.elements)
    out = set()
    for i, a in enumerate(A.elements):
        for b in A.elements[i + 1 :]:
            if 2 * b - a in members:
                out.add((a, b - a))
    return out


def expand_witnesses(witnesses, n):
    """All n-term (start, difference) pairs covered by maximal-run witnesses."""
    out = set()
    for w in witnesses:
        for j in range(w.length - n + 1):
            out.add((w.start + j * w.difference, w.difference))
    return out


class TestFindApIntegers:
    def test_simple_witness(self):
        A = IntegerSet((1, 3, 5, 9), 10)
        hits = find_ap_integers(A, 3)
        assert any(w.start == 1 and w.difference == 2 and w.length == 3 for w in hits)

    def test_no_progression(self):
        assert find_ap_integers(IntegerSet((0, 1, 5), 6), 3) == []

    def test_maximal_length_reported_once(self):
        A = IntegerSet((0, 2, 4, 6), 7)
        hits = find_ap_integers(A, 4)
        assert hits == [APWitness(0, 2, 4)] == [(0, 2, 4)]
        # the same run is not re-reported from its second term
        hits3 = find_ap_integers(A, 3)
        assert APWitness(0, 2, 4) in hits3
        assert not any(w.start == 2 and w.difference == 2 for w in hits3)

    def test_short_length_rejected(self):
        with pytest.raises(ValueError):
            find_ap_integers(IntegerSet((0, 1, 2), 3), 2)

    @given(st.sets(st.integers(0, 511), min_size=0, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_oracle(self, elems):
        A = IntegerSet.from_elements(elems, 512)
        witnesses = find_ap_integers(A, 3)
        assert expand_witnesses(witnesses, 3) == brute_force_3aps(A)
        # rows are distinct, in (start, difference) order, and maximal runs in A
        keys = [(w.start, w.difference) for w in witnesses]
        assert keys == sorted(set(keys))
        members = set(A.elements)
        for start, d, length in witnesses:
            assert d >= 1 and length >= 3
            assert all(start + j * d in members for j in range(length))
            assert start - d not in members and start + length * d not in members


class TestFindApPoints:
    def test_rational_witness(self):
        hits = find_ap_points([Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)], 3)
        assert hits == [APWitness(Fraction(1, 6), Fraction(1, 3), 3)]

    def test_no_witness(self):
        assert find_ap_points([Fraction(0), Fraction(1, 3), Fraction(3, 4)], 3) == []

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            find_ap_points([Fraction(1, 2), Fraction(2, 4)], 3)

    def test_planted_progressions_recovered(self):
        # 50 planted 5-term rational progressions among 200 distractors
        rng = np.random.default_rng(17)
        planted = []
        points = set()
        while len(planted) < 50:
            start = Fraction(int(rng.integers(0, 2000)), 10007)
            step = Fraction(int(rng.integers(1, 150)), 10007)
            terms = [start + j * step for j in range(5)]
            if all(0 <= t < 1 for t in terms) and not points.intersection(terms):
                planted.append((start, step))
                points.update(terms)
        while len(points) < 450:
            points.add(Fraction(int(rng.integers(0, 10007)), 10007))
        witnesses = find_ap_points(sorted(points), 5)
        found = expand_witnesses(witnesses, 5)
        for start, step in planted:
            assert (start, step) in found


class TestDyadicEmbed:
    def test_two_term_slope(self):
        A = IntegerSet((1, 2, 3), 4)
        image = dyadic_embed(A, [2, 4], 2)
        assert image == [Fraction(5, 16), Fraction(10, 16), Fraction(15, 16)]

    def test_single_term(self):
        A = IntegerSet((1, 2, 3), 4)
        assert dyadic_embed(A, [2], 1) == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_small_first_exponent_rejected(self):
        with pytest.raises(ValueError):
            dyadic_embed(IntegerSet((1, 5), 6), [2, 4], 2)

    @given(st.sets(st.integers(0, 100), min_size=2, max_size=12), st.integers(7, 10), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, elems, e1, gap):
        A = IntegerSet.from_elements(elems, 101)
        image = dyadic_embed(A, [e1, e1 + gap], 2)
        assert image == sorted(image)
        assert len(set(image)) == len(A)

    def test_progressions_preserved_both_ways(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            start = int(rng.integers(0, 40))
            step = int(rng.integers(1, 20))
            terms = [start + j * step for j in range(n)]
            A = IntegerSet.from_elements(terms)
            e1 = max(terms).bit_length() + 1
            e2 = e1 + int(rng.integers(1, 6))
            image = dyadic_embed(A, [e1, e2], 2)
            slope = Fraction(1, 2**e1) + Fraction(1, 2**e2)
            witnesses = find_ap_points(image, n)
            assert any(w.difference == step * slope and w.length >= n for w in witnesses)


class TestGridApDescent:
    def test_exact_dyadics(self):
        hit = grid_ap_descent([Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)], 3, 3)
        assert hit.stage == 3 and hit.indices == (1, 3, 5)

    def test_sevenths(self):
        hit = grid_ap_descent([Fraction(1, 7), Fraction(3, 7), Fraction(5, 7)], 3, 3)
        # floor oracle: floor(8/7), floor(24/7), floor(40/7)
        assert (8 // 7, 24 // 7, 40 // 7) == (1, 3, 5)
        assert hit.stage == 3 and hit.indices == (1, 3, 5)

    @given(st.sets(st.integers(0, 40), min_size=1, max_size=15), st.integers(3, 5))
    @settings(max_examples=100, deadline=None)
    def test_first_progression_matches_oracle(self, values, n):
        # integer points at k_max = 0 make the indices the values themselves;
        # oracle: lexicographically first (start, difference) with n terms
        expected = None
        for x in sorted(values):
            for d in range(1, 41):
                if all(x + j * d in values for j in range(n)):
                    expected = tuple(x + j * d for j in range(n))
                    break
            if expected:
                break
        hit = grid_ap_descent([Fraction(v) for v in values], n, 0)
        assert (hit.indices if hit else None) == expected

    def test_negative_points_use_floor(self):
        # truncation toward zero would put -1/4 and 1/4 both at stage-1 index 0
        hit = grid_ap_descent([Fraction(-3, 4), Fraction(-1, 4), Fraction(1, 4)], 3, 1)
        assert hit == GridAP(1, (-2, -1, 0))

    def test_none_at_any_stage(self):
        pts = [Fraction(0), Fraction(3, 8), Fraction(7, 8)]
        assert grid_ap_descent(pts, 3, 6) is None

    def test_never_separated_is_distinct_failure(self):
        pts = [Fraction(1, 64), Fraction(2, 64), Fraction(3, 64)]
        with pytest.raises(SeparationError):
            grid_ap_descent(pts, 3, 2)

    def test_separation_required_for_report(self):
        # points collide at stage 2 and below; the stage-3 indices carry the
        # progression, and nothing coarser is ever reported
        pts = [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)]
        hit = grid_ap_descent(pts, 3, 5)
        assert hit.stage == 5
        indices = [int(p * 2**hit.stage) for p in pts]
        assert len(set(indices)) == len(pts)

    def test_scaling_shifts_stage(self):
        pts = [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8)]
        base = grid_ap_descent(pts, 3, 3)
        for t in (1, 2, 3):
            scaled = [p / 2**t for p in pts]
            hit = grid_ap_descent(scaled, 3, 3 + t)
            assert hit.stage == base.stage + t
            assert np.diff(hit.indices).tolist() == np.diff(base.indices).tolist()


class TestThm32Check:
    def test_full_set_vacuous(self):
        A = IntegerSet(tuple(range(256)), 256)
        report = check_thm32_hypotheses(A, 0.9, 1.0)
        assert report.failed == ()
        assert report.bound_violations == ()
        assert report.ap_found

    def test_three_points_fail_density(self):
        report = check_thm32_hypotheses(IntegerSet((0, 1, 5), 6), 0.7, 1.0)
        assert "density" in report.failed
        assert not report.density_ok

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            check_thm32_hypotheses(IntegerSet((0, 1, 2), 4), 0.5, 1.0)

    def test_random_dense_sets_conclusion(self):
        # hypothesis pass rate is logged; the 3-term conclusion must hold in
        # every passing case (and, at this density, in every case at all)
        passing = 0
        conclusion_given_pass = 0
        for seed in range(50):
            A = power_law_set(2**14, 0.8, seed=seed)
            report = check_thm32_hypotheses(A, 0.7, 4.0)
            if not report.failed:
                passing += 1
                conclusion_given_pass += report.ap_found
            assert report.ap_found
        assert conclusion_given_pass == passing
