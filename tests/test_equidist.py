import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import equidist
from salemkit.cantor import CantorStage, build_stage, make_plan, ternary_plan
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

from test_cantor import small_plans
from test_formats import EDGE_DOUBLES, complex_abs

LOG23 = math.log(2) / math.log(3)
INT64_MAX = 2**63 - 1


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


def loop_n_approximation(stage, N):
    """Oracle: a stage's cells by the span loop over Python ints, each
    interval's range of cells added to one set, then sorted."""
    D, length = stage.denominator, stage.length
    cells = set()
    for n in stage.numerators:
        cells.update(range(n * N // D, min(-(-(n + length) * N // D), N)))
    return tuple(sorted(cells))


def set_integers_from_approximations(approximations):
    """Oracle: the extraction with each stage's keys c * (L / N) held as a
    set of Python ints."""
    L = math.lcm(*(a.N for a in approximations))
    out = set()
    prev_keys = set()
    prev_N = 0
    horizon = 1
    for approx in approximations:
        scale = L // approx.N
        out.update(prev_N + c for c in approx.cells if c * scale not in prev_keys)
        horizon = max(horizon, prev_N + approx.N)
        prev_keys = {c * scale for c in approx.cells}
        prev_N = approx.N
    return IntegerSet(tuple(sorted(out)), horizon)


@st.composite
def guard_stages(draw):
    """(stage, N): a few intervals of one short length, clustered (adjacent,
    overlapping one cell, or apart) in the upper half of [0, D).  D lies
    below, at or past 2**63 - 1, and N is small, or the largest N for which
    (n_last + length) * N fits in int64, one less, one more or twice it.
    The upper half keeps the cell count small at any such N."""
    D = draw(st.sampled_from([2**40 + 15, 3**30, 2**62 + 1, INT64_MAX - 1, INT64_MAX, 2**63, 2**63 + 1, 3**45]))
    length = draw(st.integers(1, 1000))
    offsets = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=6)))
    spread = draw(st.sampled_from([length, 1, 2 * length + 1]))
    base = draw(st.integers(D // 2, D - length - spread * offsets[-1]))
    stage = CantorStage(1, tuple(base + spread * o for o in offsets), length, D)
    edge = max(1, INT64_MAX // (stage.numerators[-1] + length))
    N = draw(st.one_of(st.integers(1, 64), st.sampled_from([edge - 1, edge, edge + 1, 2 * edge]).filter(lambda n: n >= 1)))
    return stage, N


@st.composite
def guard_sequences(draw):
    """Approximations of sizes s * m for increasing multipliers m, with s
    at, below or past the largest size for which L * max N fits in int64.
    Cells m * t share the fraction t / s across stages; cells near 0 and
    near N mostly do not."""
    mults = sorted(draw(st.sets(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=1, max_size=4)))
    # L = s * lcm(mults) and max N = s * mults[-1]
    edge = math.isqrt(INT64_MAX // (math.lcm(*mults) * mults[-1]))
    s = draw(st.sampled_from([edge - 1, edge, edge + 1, 7, 60]))
    approximations = []
    for m in mults:
        N = s * m
        shared = {m * t for t in draw(st.sets(st.integers(0, 8), max_size=6))}
        ends = {c for o in draw(st.sets(st.integers(0, 8), max_size=6)) for c in (o, N - 1 - o)}
        approximations.append(NApproximation(N, tuple(sorted(c for c in shared | ends if 0 <= c < N))))
    return approximations


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

    @given(small_plans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_small_plan_stages_match_span_loop(self, plan, data):
        # unit eta puts adjacent intervals on one boundary cell, and at
        # small N many intervals share a cell, so clipped spans are empty
        stage = build_stage(plan, data.draw(st.integers(0, plan.depth)))
        N = data.draw(st.integers(1, 3 * plan.M(plan.depth)))
        assert n_approximation(stage, N).cells == loop_n_approximation(stage, N)

    @given(guard_stages())
    @settings(max_examples=200, deadline=None)
    def test_stages_at_the_int64_guard_match_span_loop(self, stage_and_N):
        stage, N = stage_and_N
        assert n_approximation(stage, N).cells == loop_n_approximation(stage, N)

    def test_int64_spans_up_to_the_guard(self):
        # (n_last + length) * N and D each exactly 2**63 - 1 keep the cells
        # in int64; one past either, or no numerators, makes them Python
        # ints in an object array
        top = INT64_MAX // 7
        cases = [
            (CantorStage(1, (0, top // 2, top - 5), 5, top), 7, np.int64),
            (CantorStage(1, (0, top // 2, top - 5), 5, top), 8, object),
            (CantorStage(1, (0, 1, 5), 3, INT64_MAX), 3, np.int64),
            (CantorStage(1, (0, 1, 5), 3, INT64_MAX + 1), 3, object),
            (CantorStage(1, (), 3, INT64_MAX + 1), 3, object),
        ]
        for stage, N, dtype in cases:
            cells = equidist._stage_cells(stage, N)
            assert cells.dtype == dtype
            assert tuple(cells.tolist()) == loop_n_approximation(stage, N)
            assert n_approximation(stage, N).cells == loop_n_approximation(stage, N)
        assert type(n_approximation(CantorStage(1, (0, 1, 5), 3, 8), 8).cells[0]) is int

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

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(st.tuples(*[st.one_of(st.floats(), st.sampled_from(EDGE_DOUBLES))] * 2), min_size=1, max_size=16),
        d=st.integers(1, 5),
    )
    @example(parts=[(0.0, -0.0), (-0.0, 5e-324), (math.inf, math.nan), (math.nan, 1.0), (0.6, 0.8)], d=1)
    @example(parts=[(1.7976931348623157e308, 1.7976931348623157e308), (0.0, math.nan)], d=1)
    def test_moduli_are_complex_abs(self, parts, d):
        # any sums of d cells, through the patched kernel: each modulus is
        # complex abs of the normalized sum to the bit, and inf where abs
        # overflows
        sums = np.array([complex(re, im) for re, im in parts])
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(equidist, "exp_sum", lambda cells, N, ms: sums.copy())
            mods = weyl_moduli(range(d), d, range(len(sums)))
            want = [complex_abs(v) for v in (sums / d).tolist()]
        assert [m.hex() for m in mods.tolist()] == [w.hex() for w in want]

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

    @given(st.one_of(approximation_sequences(), guard_sequences()))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_reference(self, approximations):
        assert integers_from_approximations(approximations) == set_integers_from_approximations(approximations)

    def test_int64_keys_up_to_the_guard(self, monkeypatch):
        # Sizes s and 2s give L * max N = 4 s**2: the largest s at which it
        # fits int64 keys the stages in int64, the next one in object
        # arrays.  L * max N is (max N)**2 times a factor made of smaller
        # sizes, so it can be neither 2**63 - 1 nor 2**63 exactly.
        dtypes = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda keys, v: dtypes.append(keys.dtype) or searchsorted(keys, v))
        edge = math.isqrt(INT64_MAX // 4)
        for s, dtype in ((edge, np.int64), (edge + 1, object)):
            # cell 2t of size 2s is the fraction t/s of cell t of size s
            approximations = [
                NApproximation(s, (0, 1, 5, s - 2, s - 1)),
                NApproximation(2 * s, (0, 1, 2, 3, 10, 2 * s - 4, 2 * s - 3, 2 * s - 1)),
            ]
            dtypes.clear()
            B = integers_from_approximations(approximations)
            assert B == set_integers_from_approximations(approximations)
            assert B.elements == (0, 1, 5, s - 2, s - 1, s + 1, s + 3, 3 * s - 3, 3 * s - 1)
            assert dtypes == [dtype]

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
