import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit.cantor import build_stage, make_plan, ternary_plan
from salemkit.core_sets import IntegerSet, decay_exponent_fit, fractional_density
from salemkit.generators import squares_below
from salemkit.equidist import (
    NApproximation,
    characterize_salem,
    equidist_order,
    integers_from_approximations,
    n_approximation,
    weyl_moduli,
)

LOG23 = math.log(2) / math.log(3)


def naive_weyl_modulus(points, m):
    # oracle: each phase x*m reduced mod 1 as a Fraction, one cmath.exp per point
    return abs(sum(cmath.exp(-2j * math.pi * float(p * m % 1)) for p in points) / len(points))


def linear_cells(intervals, N):
    # oracle: scan every cell and test its overlap with each [lo, hi) exactly
    return tuple(
        c for c in range(N)
        if any(max(lo, Fraction(c, N)) < min(hi, Fraction(c + 1, N)) for lo, hi in intervals)
    )


def stage_intervals(stage):
    return [(x, x + stage.interval_length) for x in stage.left_endpoints]


def fraction_integers_from_approximations(approximations):
    """Reference: the extraction with cells compared as reduced Fractions,
    stage by stage against the previous stage's cell fractions."""
    out = set()
    prev_fractions = set()
    prev_N = 0
    horizon = 1
    for approx in approximations:
        fractions = {Fraction(c, approx.N): c for c in approx.cells}
        new = {num for frac, num in fractions.items() if frac not in prev_fractions}
        out.update(prev_N + num for num in new)
        horizon = max(horizon, prev_N + approx.N)
        prev_fractions = set(fractions)
        prev_N = approx.N
    return IntegerSet(tuple(sorted(out)), horizon)


@st.composite
def approximation_sequences(draw):
    sizes = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=4)))
    return [NApproximation(N, tuple(sorted(draw(st.sets(st.integers(0, N - 1)))))) for N in sizes]


def interval_strategy():
    lo = st.fractions(min_value=0, max_value=1, max_denominator=32)
    return st.tuples(lo, lo).map(sorted).filter(lambda p: p[0] < p[1])


class TestNApproximation:
    def test_single_point(self):
        assert n_approximation([Fraction(1, 3)], 3).cells == (1,)

    def test_full_interval(self):
        for N in (3, 7, 16):
            assert n_approximation([(Fraction(0), Fraction(1))], N).cells == tuple(range(N))

    def test_ternary_stage_with_default_eta(self):
        stage = build_stage(ternary_plan(2), 1)
        assert (stage.numerators, stage.length, stage.denominator) == ((0, 8), 3, 12)
        assert stage_intervals(stage) == [
            (Fraction(0), Fraction(1, 4)),
            (Fraction(2, 3), Fraction(11, 12)),
        ]
        assert n_approximation(stage, 3).cells == (0, 2)

    def test_empty_target(self):
        assert n_approximation([], 8).cells == ()

    def test_point_at_one_meets_no_cell(self):
        assert n_approximation([Fraction(1)], 4).cells == ()

    @given(st.lists(interval_strategy(), min_size=1, max_size=4), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_intervals_match_linear_oracle(self, intervals, N):
        assert n_approximation(intervals, N).cells == linear_cells(intervals, N)

    def test_stages_match_linear_oracle(self):
        squares = make_plan(squares_below(100), [100, 100], 0.5)
        for plan, depth, N in ((ternary_plan(5), 5, 3**6), (ternary_plan(5, unit_eta=True), 5, 3**5),
                               (squares, 2, 997)):
            stage = build_stage(plan, depth)
            assert n_approximation(stage, N).cells == linear_cells(stage_intervals(stage), N)

    @given(st.lists(interval_strategy(), min_size=1, max_size=4), st.integers(1, 24))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_target(self, intervals, N):
        sub = n_approximation(intervals[:1], N)
        full = n_approximation(intervals, N)
        assert set(sub.cells) <= set(full.cells)

    @given(st.lists(interval_strategy(), min_size=1, max_size=3), st.integers(1, 8), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_refinement_consistency(self, intervals, coarse, factor):
        # every fine cell floors into a coarse cell of the approximation
        fine = coarse * factor
        coarse_cells = set(n_approximation(intervals, coarse).cells)
        for j in n_approximation(intervals, fine).cells:
            assert j * coarse // fine in coarse_cells


class TestEquidistOrder:
    def test_full_grid_hits_cap(self):
        approx = NApproximation(64, tuple(range(64)))
        assert equidist_order([approx]).alpha == 1.0

    def test_single_cell_gives_zero(self):
        approx = NApproximation(64, (0,))
        assert equidist_order([approx]).alpha == 0.0

    def test_random_cells_square_root_cancellation(self):
        # d = ceil(sqrt(N)) uniform cells: alpha within 0.5 +- 0.15 in at
        # least 80% of seeds
        N = 4096
        d = 64
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cells = tuple(sorted(rng.choice(N, size=d, replace=False)))
            est = equidist_order([NApproximation(N, cells)])
            hits += abs(est.alpha - 0.5) <= 0.15
        assert hits >= 80

    def test_small_N_rejected(self):
        with pytest.raises(ValueError):
            equidist_order([NApproximation(8, (0, 1))])

    def test_too_few_usable_samples_rejected(self):
        approx = NApproximation(64, (0, 5, 9))
        with pytest.raises(ValueError):
            equidist_order([approx], m_grid=[2, 3, 4])

    def test_moduli_match_weyl_sum(self):
        approx = NApproximation(32, (0, 3, 7, 9, 21))
        ms = [2, 3, 5, 17, 31]
        mods = weyl_moduli(approx.cells, approx.N, ms)
        for m, mod in zip(ms, mods):
            assert mod == pytest.approx(naive_weyl_modulus([Fraction(c, 32) for c in approx.cells], m), abs=1e-12)

    @pytest.mark.parametrize("N", [2**31 + 1, 2**62 + 3])
    def test_moduli_beyond_int32(self, N):
        cells = (0, 1, 2**30 + 5, N // 3, N - 2)
        ms = [2, 3, 2**31 - 5, N // 2, N - 1]
        mods = weyl_moduli(cells, N, ms)
        fractions = [Fraction(c, N) for c in cells]
        for m, mod in zip(ms, mods):
            assert mod == pytest.approx(naive_weyl_modulus(fractions, m), abs=1e-12)

    def test_duplicate_phase_point_never_raises_alpha(self):
        base = NApproximation(64, (0, 5, 17, 33, 50))
        # doubling N and cells keeps every phase class; alpha cannot rise
        doubled = NApproximation(128, tuple(2 * c for c in base.cells))
        ms = [2, 3, 5, 9, 17, 33, 63]
        a1 = equidist_order([base], m_grid=ms).alpha
        a2 = equidist_order([doubled], m_grid=ms).alpha
        assert a2 <= a1 + 1e-12

    def test_ternary_stage_sequence_has_no_order(self):
        # |W_k(3^(k-1))| = 1/2 at every stage, so no single constant C
        # supports a positive order along the sequence
        plan = ternary_plan(8, unit_eta=True)
        stages = [n_approximation(build_stage(plan, k), 3**k) for k in range(1, 9)]
        assert equidist_order(stages, m_grid=range(2, 3**8)).alpha < 0.05

    def test_ternary_finest_stage_alone_keeps_floor(self):
        plan = ternary_plan(8, unit_eta=True)
        approx = n_approximation(build_stage(plan, 8), 3**8)
        alpha = equidist_order([approx], m_grid=range(2, 3**8)).alpha
        assert alpha == pytest.approx(2 * math.log(2) / math.log(2 * 3**7), abs=1e-9)

    def test_single_approximation_is_bound_fit_of_its_samples(self):
        approx = NApproximation(256, (0, 3, 17, 40, 41, 99, 130, 200, 255))
        est = equidist_order([approx])
        assert est.alpha == decay_exponent_fit(est.per_m_bounds)

    def test_sequence_keeps_finest_samples_and_never_raises_alpha(self):
        rng = np.random.default_rng(7)
        seq = [NApproximation(N, tuple(sorted(rng.choice(N, size=int(N**0.5), replace=False))))
               for N in (256, 1024, 4096)]
        alone = equidist_order(seq[-1:])
        joint = equidist_order(seq)
        assert joint.per_m_bounds == alone.per_m_bounds
        assert joint.alpha <= alone.alpha

    def test_random_sequences_keep_positive_order(self):
        # square-root-sized uniform sets along N = 2^8..2^12 have peaks
        # decaying like N^(-1/4); the sequence rule must not score them
        # like the ternary control
        for seed in range(100):
            rng = np.random.default_rng(seed)
            seq = [NApproximation(N, tuple(sorted(rng.choice(N, size=round(N**0.5), replace=False))))
                   for N in (2**e for e in range(8, 13))]
            assert equidist_order(seq).alpha > 0.05

    def test_sequence_skips_empty_and_zero_peak_members(self):
        full = [n_approximation([(Fraction(0), Fraction(1))], N) for N in (16, 64, 256)]
        assert equidist_order(full).alpha == 1.0
        assert equidist_order([NApproximation(16, ()), *full[1:]]).alpha == 1.0


class TestCharacterizeSalem:
    def test_full_interval_is_salem(self):
        approxs = [n_approximation([(Fraction(0), Fraction(1))], N) for N in (16, 64, 256)]
        report = characterize_salem(approxs, 1.0)
        assert report.verdict == "salem"
        assert report.beta_hat == pytest.approx(1.0, abs=1e-9)

    def test_ternary_control_not_salem(self):
        plan = ternary_plan(4, unit_eta=True)
        approxs = [n_approximation(build_stage(plan, k), 3**k) for k in (1, 2, 3, 4)]
        report = characterize_salem(approxs, LOG23)
        assert report.verdict in ("salem-type", "neither")
        density = report.beta_hat
        assert density == pytest.approx(LOG23, abs=0.01)
        assert report.order_estimate.alpha < density - report.tolerance

    def test_non_increasing_sizes_rejected(self):
        a = NApproximation(16, (0,))
        with pytest.raises(ValueError):
            characterize_salem([a, a, a], 0.5)

    def test_stage_constants_reported(self):
        approxs = [n_approximation([(Fraction(0), Fraction(1))], N) for N in (16, 64, 256)]
        report = characterize_salem(approxs, 1.0)
        for s in report.density_exponents:
            assert s.c_value == pytest.approx(1.0)
        assert report.c_in_bounds


class TestIntegersFromApproximations:
    def test_single_stage(self):
        B = integers_from_approximations([NApproximation(10, (0, 3, 7))])
        assert B.elements == (0, 3, 7)

    def test_two_stage_subtraction(self):
        # stage-2 fractions 0/8 and 4/8 already occur at stage 1 as 0/4, 2/4
        stages = [NApproximation(4, (0, 2)), NApproximation(8, (0, 2, 4))]
        B = integers_from_approximations(stages)
        assert B.elements == (0, 2, 6)

    def test_blocks_within_windows(self):
        rng = np.random.default_rng(3)
        Ns = [16, 64, 256]
        approxs = [
            NApproximation(N, tuple(sorted(rng.choice(N, size=max(2, N // 8), replace=False))))
            for N in Ns
        ]
        B = integers_from_approximations(approxs)
        assert B.elements == tuple(sorted(set(B.elements)))
        windows = [(0, Ns[0]), (Ns[0], Ns[0] + Ns[1]), (Ns[1], Ns[1] + Ns[2])]
        for e in B.elements:
            assert any(lo <= e < hi for lo, hi in windows)

    def test_round_trip_first_stage(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            N = int(rng.integers(8, 64))
            size = int(rng.integers(1, N))
            cells = tuple(sorted(rng.choice(N, size=size, replace=False)))
            B = integers_from_approximations([NApproximation(N, cells)])
            back = n_approximation([Fraction(b, N) for b in B.elements], N)
            assert back.cells == cells

    @given(approximation_sequences())
    @example([NApproximation(6, (0, 2, 3, 5)), NApproximation(10, (0, 4, 5, 9)), NApproximation(15, (0, 5, 6, 10))])
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, approximations):
        # non-nested sizes such as 6, 10, 15 share only some cell fractions
        assert integers_from_approximations(approximations) == fraction_integers_from_approximations(approximations)

    def test_density_tracks_construction(self):
        # four stages of one beta = 0.5 refinement; counting at the block
        # ends (where each stage's contribution is complete), the extracted
        # set's fitted density lands near 0.5
        rng = np.random.default_rng(12)
        beta = 0.5
        size = 64
        Ms = [size, size**2, size**3, size**4]
        approxs = []
        cells = np.arange(size, dtype=np.int64)[rng.random(size) < size**-beta]
        approxs.append(NApproximation(size, tuple(int(c) for c in cells)))
        for M in Ms[1:]:
            children = (cells[:, None] * size + np.arange(size, dtype=np.int64)).ravel()
            cells = children[rng.random(children.size) < size**-beta]
            approxs.append(NApproximation(M, tuple(int(c) for c in cells)))
        B = integers_from_approximations(approxs)
        grid = [Ms[0]] + [Ms[i - 1] + Ms[i] for i in range(1, 4)]
        est = fractional_density(B, grid)
        assert est.exponent == pytest.approx(beta, abs=0.1)
