import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import aps
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


def loop_runs(values, n, first_only):
    """Oracle: the (start, difference) pair loop the search replaced, over
    sorted distinct values with a hash index."""
    if n < 3:
        raise ValueError("progression length must be at least 3")
    index = set(values)
    out = []
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


def typed(witnesses):
    """Rows with the type of every entry, so int and Fraction rows differ."""
    return [tuple((type(v), v) for v in w) for w in witnesses]


INT64_MAX = 2**63 - 1


@st.composite
def run_values(draw):
    """(sorted distinct ints, n): up to 40 values within 400 of an anchor,
    above or below it.  The anchors put the extreme value at the int64
    guard INT64_MAX // (2n) and one past it, at 2**63 - 1 and 2**63, near
    0 and among negatives."""
    n = draw(st.integers(3, 6))
    guard = INT64_MAX // (2 * n)
    anchor = draw(st.sampled_from([0, -200, guard, guard + 1, -guard, -guard - 1, INT64_MAX, 2**63, -(2**63), 2**70]))
    sign = draw(st.sampled_from([1, -1]))
    offsets = draw(st.sets(st.integers(0, 400), max_size=40))
    if draw(st.booleans()):
        offsets.add(0)
    return sorted({anchor + sign * o for o in offsets}), n


@st.composite
def point_sets(draw):
    """(sorted distinct Fractions, n): integers near an anchor plus p/q with
    pairwise coprime denominators q, so the lcm is their product."""
    n = draw(st.integers(3, 6))
    anchor = draw(st.sampled_from([0, -5, 2**63, -(2**64)]))
    q = draw(st.lists(st.sampled_from([1, 2, 3, 5, 7, 11, 13]), min_size=1, max_size=3, unique=True))
    numerators = draw(st.sets(st.integers(-120, 120), max_size=30))
    return sorted({anchor + Fraction(a, q[a % len(q)]) for a in numerators}), n


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


class TestLoopOracle:
    """Every search agrees with the pair loop row for row: values, order
    and the type of each entry."""

    @given(run_values(), st.booleans())
    @example(([], 3), False)
    @example(([7], 4), False)
    @example(([5, 9], 3), True)
    @example(([0, 1, 2, 3, 5], 3), False)
    @settings(max_examples=300, deadline=None)
    def test_run_rows(self, case, first_only):
        values, n = case
        got = list(aps._run_rows(values, n, first_only))
        assert typed(got) == typed(loop_runs(values, n, first_only))
        # each start is the input's own int object
        ids = set(map(id, values))
        assert all(id(start) in ids for start, _, _ in got)
        if values and values[0] >= 0:
            A = IntegerSet.from_elements(values)
            assert typed(find_ap_integers(A, n, first_only=first_only)) == typed(got)

    @given(point_sets(), st.booleans())
    @example(([], 3), False)
    @example(([Fraction(1, 3)], 5), True)
    @settings(max_examples=200, deadline=None)
    def test_find_ap_points(self, case, first_only):
        points, n = case
        got = find_ap_points(points, n, first_only=first_only)
        assert typed(got) == typed(loop_runs(points, n, first_only))

    @given(point_sets(), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_grid_ap_descent(self, case, k_max):
        points, n = case
        try:
            got = grid_ap_descent(points, n, k_max)
        except SeparationError:
            got = SeparationError
        with mock.patch.object(aps, "_run_rows", lambda values, n, first_only: iter(loop_runs(values, n, first_only))):
            try:
                want = grid_ap_descent(points, n, k_max)
            except SeparationError:
                want = SeparationError
        assert got == want
        if isinstance(got, GridAP):
            assert set(map(type, got.indices)) == {int}
            assert set(got.indices) <= {math.floor(p * 2**got.stage) for p in points}

    def test_short_length_rejected_before_any_search(self):
        for values in ([], [1], [1, 2, 3]):
            with pytest.raises(ValueError):
                next(aps._run_rows(values, 2, False))
        with pytest.raises(ValueError):
            find_ap_points([], 2)

    def test_blocks_split_the_pair_scan(self):
        # 600 evenly spaced members hold about 90,000 pairs, several blocks;
        # the witnesses run on across the block seams
        values = list(range(0, 1200, 2))
        got = list(aps._run_rows(values, 3, False))
        assert typed(got) == typed(loop_runs(values, 3, False))
        blocks = list(aps._run_blocks(values, 3, False))
        assert len(blocks) > 1


class TestFindApPoints:
    def test_coprime_denominators_keep_blocks_small(self):
        # 150 unit fractions 1/p take the lcm past 2**1200, so every scaled
        # value is an int of some 150 bytes: the object blocks are cut by
        # bytes, not pairs, and the search holds well under 1 MB
        primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))][:150]
        points = sorted({Fraction(1, p) for p in primes} | {Fraction(j, 1000) for j in range(600, 1000, 3)})
        tracemalloc.start()
        try:
            got = find_ap_points(points, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert typed(got) == typed(loop_runs(points, 3, False))
        assert peak < 2**20

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
