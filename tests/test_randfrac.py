import cmath
import json
import math
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import core_sets, equidist, randfrac
from salemkit.randfrac import (
    OrderStats,
    RandomFractalConfig,
    dimension_experiment,
    lemma63_experiment,
    mu1_hat,
    order_experiment,
)
from salemkit.cli import run_command
from salemkit.core_sets import _CHUNK, exp_sum, exp_sums
from salemkit.equidist import NApproximation, equidist_order
from salemkit.formats import canonical_json

SEED = 20260810


def mu1(cells, N1, beta, u):
    """mu1_hat at a single frequency."""
    return complex(mu1_hat(cells, N1, beta, [u])[0])


def below(values, bounds):
    """Whether every |value| is below its bound, by scalar complex abs."""
    return all(abs(v) < b for v, b in zip(values.tolist(), bounds))


def naive_mu1(cells, N1, beta, u):
    # oracle: exact integral of e^{-2 pi i u x} / p over each white cell,
    # with every phase u*c/N1 reduced mod 1 as a Fraction
    p = N1 ** (-beta)
    comb = sum(cmath.exp(-2j * math.pi * float(u * c / N1 % 1)) for c in cells)
    return comb * (1 - cmath.exp(-2j * math.pi * float(u) / N1)) / (2j * math.pi * float(u)) / p


def reference_refine(config, trial_index):
    """Oracle for the refinement: build every child cell of a stage, then
    draw one uniform per child from the trial stream and keep the children
    whose draw is below size**(-beta)."""
    rng = randfrac.trial_rng(config, trial_index)
    stages = []
    current = np.zeros(1, dtype=np.int64)
    for size in config.level_sizes[: config.depth]:
        if current.size == 0:
            break
        children = (current[:, None] * size + np.arange(size, dtype=np.int64)).ravel()
        keep = rng.random(children.size) < size ** (-config.beta)
        current = children[keep]
        stages.append(current)
    return stages


class LadderRng:
    """Stands in for a trial's generator: its draws run 0, 1/4, 1/2, 3/4,
    0, ... across calls, so at p = 4**-0.5 = 1/2 a quarter of them equal
    the keep probability."""

    def __init__(self):
        self.drawn = 0

    def random(self, n=None, out=None):
        n = len(out) if out is not None else n
        draws = (np.arange(self.drawn, self.drawn + n) % 4) / 4
        self.drawn += n
        if out is None:
            return draws
        out[...] = draws
        return out


def corollary64_check(final, M):
    """Oracle for order_experiment: the equidistribution order of one
    surviving trial's final-stage cell left endpoints, through an
    NApproximation and equidist_order."""
    return equidist_order([NApproximation(M, final)])


def survivor_alphas(config):
    """Oracle for order_experiment: corollary64_check on the final stage of
    every surviving trial, and the extinct count."""
    finals = [randfrac._refine(config, t)[-1] for t in range(config.trials)]
    M = config.resolution()
    return [corollary64_check(f, M).alpha for f in finals if f.size], sum(f.size == 0 for f in finals)


def stage_lists(config, trial_index):
    """Every stage of one trial as a list of Python ints."""
    return [stage.tolist() for stage in randfrac._refine(config, trial_index)]


def assert_same_stages(stages, expected):
    assert len(stages) == len(expected)
    for stage, want in zip(stages, expected):
        assert stage.dtype == np.int64
        np.testing.assert_array_equal(stage, want)


# Level sizes for the refinement oracle: 1, sizes that do not divide 2**16,
# a power of two, and one above 2**16, which fills a block by itself.
ORACLE_SIZES = (1, 2, 3, 7, 64, 100, 1000, 70001)


@st.composite
def refinement_configs(draw):
    """Configs whose full refinement has at most 2**20 cells, so the oracle
    stays cheap even at beta = 0."""
    sizes = []
    budget = 1 << 20
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([n for n in ORACLE_SIZES if n <= budget]))
        sizes.append(size)
        budget //= size
    beta = draw(st.floats(0.0, 1.0, exclude_max=True))
    depth = draw(st.integers(1, len(sizes)))
    trial_index = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**64 - 1))
    return RandomFractalConfig(beta, tuple(sizes), depth, trial_index + 1, seed), trial_index


class TestRefine:
    @given(refinement_configs())
    # beta = 0 keeps every child.
    @example((RandomFractalConfig(0.0, (3, 70001), 2, 1, SEED), 0))
    # Trial 3 dies at stage 2 of 3 (pinned in TestGenerateTrial).
    @example((RandomFractalConfig(0.75, (4, 4, 4), 3, 4, 7), 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_build_all_children_oracle(self, case):
        config, t = case
        assert_same_stages(randfrac._refine(config, t), reference_refine(config, t))

    @pytest.mark.parametrize("chunk", [_CHUNK, 1000, 1])
    def test_last_stage_over_several_blocks(self, chunk):
        # 64**4 at beta = 1/4 is the benchmark's trial size: here the last
        # stage draws 522,304 uniforms, 8 blocks of 2**16.  Smaller blocks
        # take the same draws from the stream, so the cells, and the count
        # of the last stage, do not change.
        config = RandomFractalConfig(0.25, (64, 64, 64, 64), 4, 1, SEED)
        expected = reference_refine(config, 0)
        assert expected[-2].size * 64 > 4 * _CHUNK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randfrac, "_CHUNK", chunk)
            assert_same_stages(randfrac._refine(config, 0), expected)
            assert randfrac._final_count(config, 0) == expected[-1].size

    @given(refinement_configs(), st.sampled_from([_CHUNK, 1000]))
    # Trial 3 dies at stage 2 of 3, so nothing is left to count.
    @example((RandomFractalConfig(0.75, (4, 4, 4), 3, 4, 7), 3), 1)
    # Size-1 levels keep their one child (p = 1) and draw for it all the same.
    @example((RandomFractalConfig(0.5, (7, 1, 1), 3, 2, SEED), 1), 1)
    @example((RandomFractalConfig(0.5, (1, 1, 1), 3, 1, SEED), 0), 1000)
    @settings(max_examples=60, deadline=None)
    def test_counted_last_stage_matches_oracle(self, case, chunk):
        config, t = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randfrac, "_CHUNK", chunk)
            assert randfrac._final_count(config, t) == reference_refine(config, t)[-1].size
            M = config.resolution()
            if config.depth >= 3 and M >= 2:
                counts = [reference_refine(config, s)[-1].size for s in range(config.trials)]
                dims = tuple(math.log(c) / math.log(M) for c in counts if c)
                assert dimension_experiment(config).dims == dims

    def test_draw_equal_to_p_drops_the_child(self, monkeypatch):
        # A child is kept when its draw is below p, so a uniform draw on
        # [0, 1) keeps it with probability p exactly: with p = 1/2 and the
        # draws 0, 1/4, 1/2, 3/4 two of every four children survive, when
        # the stage is built and when it is only counted.
        monkeypatch.setattr(randfrac, "trial_rng", lambda config, trial_index: LadderRng())
        config = RandomFractalConfig(0.5, (4, 4, 4), 3, 1, SEED)
        expected = reference_refine(config, 0)
        assert [stage.size for stage in expected] == [2, 4, 8]
        assert_same_stages(randfrac._refine(config, 0), expected)
        assert randfrac._final_count(config, 0) == 8


class TestTrialRng:
    @given(seed=st.integers(0, 2**64 - 1), t=st.integers(0, 2**70))
    @example(seed=0, t=0)
    @example(seed=2**32 - 1, t=1)
    @example(seed=2**32, t=2**32 - 1)
    @example(seed=2**64 - 1, t=2**32)
    @example(seed=SEED, t=2**64 + 5)
    @settings(max_examples=200)
    def test_state_is_that_of_the_seed_list(self, seed, t):
        # the generator of the words [seed, t] is numpy's generator of the
        # list [seed, t], whatever number of words each integer takes
        config = RandomFractalConfig(0.5, (4,), 1, 1, seed)
        want = np.random.default_rng([seed, t]).bit_generator.state
        assert randfrac.trial_rng(config, t).bit_generator.state == want


class TestGenerateTrial:
    def test_beta_zero_full_survival(self):
        cfg = RandomFractalConfig(0.0, (4, 4, 4), 3, 1, SEED)
        trial = randfrac._trial_fields(cfg, 0)
        assert trial["white_counts"] == (4, 16, 64)
        assert not trial["extinct"]

    # Cells recorded from the generator: any change to the order or number
    # of RNG draws changes them.
    PINNED = {
        (0.5, (8, 8, 8), 7): [
            ((3, 4, 6), (26, 27, 28, 36, 37, 39, 48, 55),
             (208, 209, 211, 213, 215, 216, 222, 228, 230, 231, 295, 297, 299, 301, 303, 314, 319,
              384, 387, 441, 442, 446)),
            ((1, 2, 3, 7), (8, 10, 11, 15, 18, 22, 24, 25, 27, 28, 29, 56, 60, 61),
             (69, 80, 82, 83, 85, 89, 91, 95, 121, 125, 126, 127, 148, 176, 178, 179, 182, 192, 199,
              203, 206, 216, 220, 221, 227, 228, 232, 234, 453, 455, 480, 482, 483, 485, 488, 495)),
        ],
        (0.5, (8, 8, 8), 2026): [
            ((0, 7), (1, 57, 58, 59, 63), (10, 13, 14, 458, 463, 465, 466, 468, 471, 506, 509, 511)),
            ((),),
        ],
        (0.75, (4, 4, 4), 7): [
            ((3,), (12, 14), (50, 51, 56)),
            ((1, 2, 3), (7, 8, 10, 11, 15), (30, 34, 40, 41, 43, 44, 45, 60)),
            ((0,), (0, 1, 2), (0, 2, 3, 6)),
            ((2,), ()),
        ],
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_cells(self, key):
        beta, sizes, seed = key
        expected = self.PINNED[key]
        cfg = RandomFractalConfig(beta, sizes, len(sizes), len(expected), seed)
        for t, stages in enumerate(expected):
            trial = randfrac._trial_fields(cfg, t)
            assert all(stage.dtype == np.int64 for stage in trial["stages"])
            assert [stage.tolist() for stage in trial["stages"]] == [list(s) for s in stages]
            assert trial["white_counts"] == tuple(len(s) for s in stages)
            assert trial["extinct"] == (len(stages) < len(sizes) or not stages[-1])

    def test_deterministic_replay(self):
        cfg = RandomFractalConfig(0.5, (16, 16, 16), 3, 2, SEED)
        assert stage_lists(cfg, 0) == stage_lists(cfg, 0)
        assert stage_lists(cfg, 0) != stage_lists(cfg, 1)

    def test_resolution_beyond_int64_rejected(self):
        # cells are int64: M = 2**64 would wrap; only construct, since
        # generating at this size would allocate tens of GiB
        with pytest.raises(ValueError, match="2\\*\\*63"):
            RandomFractalConfig(0.75, (65536,) * 4, 4, 5, SEED)
        assert RandomFractalConfig(0.75, (65536,) * 4, 3, 5, SEED).resolution() == 2**48

    def test_order_independent_of_other_trials(self):
        cfg = RandomFractalConfig(0.5, (16, 16), 2, 5, SEED)
        direct = stage_lists(cfg, 3)
        _ = [stage_lists(cfg, t) for t in (4, 1, 0)]
        assert stage_lists(cfg, 3) == direct

    def test_nesting(self):
        cfg = RandomFractalConfig(0.3, (8, 8, 8), 3, 1, SEED)
        stages = stage_lists(cfg, 0)
        for size, parents, children in zip(cfg.level_sizes[1:], stages, stages[1:]):
            parent_set = set(parents)
            for c in children:
                assert c // size in parent_set

    def test_stage_one_binomial_concentration(self):
        # beta = 0.5, N1 = 4096: count within 3*sqrt(N*p*(1-p)) of 64 in at
        # least 99% of 1000 trials
        N1 = 4096
        p = N1**-0.5
        sigma = math.sqrt(N1 * p * (1 - p))
        cfg = RandomFractalConfig(0.5, (N1,), 1, 1000, SEED)
        hits = sum(
            abs(randfrac._refine(cfg, t)[0].size - 64) <= 3 * sigma for t in range(1000)
        )
        assert hits >= 990

    def test_extinction_flagged_not_resampled(self):
        # beta close to 1 on tiny levels dies out fast
        cfg = RandomFractalConfig(0.99, (2, 2, 2, 2), 4, 40, SEED)
        seen_extinct = False
        for t in range(40):
            trial = randfrac._trial_fields(cfg, t)
            if trial["extinct"]:
                seen_extinct = True
                assert len(trial["stages"]) <= 4
                assert trial["white_counts"][-1] == 0 or len(trial["stages"]) < 4
        assert seen_extinct

    def test_extinct_trial_dump(self, tmp_path):
        # Trial 3 dies at stage 2 of 3 (pinned above): the dump ends at
        # the first empty stage and is flagged extinct.
        dump = tmp_path / "trial.json"
        assert run_command(["random-salem", "--beta", "0.75", "--levels", "4,4,4", "--depth", "3",
                            "--trials", "4", "--seed", "7", "--dump-trial", "3",
                            "--trial-output", str(dump), "--output", str(tmp_path / "s.json")]) == 0
        want = {"beta": 0.75, "level_sizes": [4, 4, 4], "stages": [[2], []], "white_counts": [1, 0],
                "extinct": True, "trial_index": 3, "master_seed": 7}
        assert dump.read_text() == canonical_json(want) + "\n"


class TestDimensionExperiment:
    def test_beta_zero_dimension_one(self):
        cfg = RandomFractalConfig(0.0, (8, 8, 8), 3, 5, SEED)
        stats = dimension_experiment(cfg)
        assert stats.dims == (1.0,) * 5
        assert stats.mean_dim == 1.0
        assert stats.extinct == 0.0

    def test_beta_half(self):
        cfg = RandomFractalConfig(0.5, (64, 64, 64), 3, 50, SEED)
        stats = dimension_experiment(cfg)
        assert 0.4 <= stats.mean_dim <= 0.6

    def test_beta_quarter(self):
        cfg = RandomFractalConfig(0.25, (64, 64, 64), 3, 50, SEED)
        stats = dimension_experiment(cfg)
        assert 0.65 <= stats.mean_dim <= 0.85

    @pytest.mark.parametrize("beta, sizes, trials", [(0.75, (4, 4, 4), 40), (0.25, (64, 64, 64), 12)])
    def test_counts_match_trial_oracle(self, beta, sizes, trials):
        # the experiment counts the last stage without building it; the
        # oracle reads the counts off the trial records, extinct trials
        # included
        cfg = RandomFractalConfig(beta, sizes, 3, trials, SEED)
        results = [randfrac._trial_fields(cfg, t) for t in range(trials)]
        M = math.prod(sizes)
        dims = [math.log(r["white_counts"][-1]) / math.log(M) for r in results if not r["extinct"]]
        extinct = sum(r["extinct"] for r in results)
        assert (extinct > 0) == (beta == 0.75)
        stats = dimension_experiment(cfg)
        assert stats.dims == tuple(dims)
        assert stats.mean_dim == float(np.asarray(dims).mean())
        assert stats.std_dim == float(np.asarray(dims).std())
        assert stats.extinct == extinct / trials

    def test_resolution_one_rejected(self):
        # log(M) = 0 at M = 1 would divide by zero
        cfg = RandomFractalConfig(0.5, (1, 1, 1), 3, 2, 1)
        with pytest.raises(ValueError, match="resolution"):
            dimension_experiment(cfg)


class TestMu1Hat:
    def test_all_white_matches_lebesgue(self):
        cfg = RandomFractalConfig(0.0, (16,), 1, 1, SEED)
        cells = randfrac._refine(cfg, 0)[0]
        for u in (1, 2, 7):
            assert abs(mu1(cells, 16, 0.0, u)) < 1e-12
        assert mu1(cells, 16, 0.0, 0) == 1.0

    def test_single_cell_closed_form(self):
        # p = 1/2 on two cells, only cell 0 white: density 2 on [0, 1/2)
        cells = np.array([0], dtype=np.int64)
        expected = 2 * (1 - cmath.exp(-1j * math.pi)) / (2j * math.pi)
        assert mu1(cells, 2, 1.0, 1) == pytest.approx(expected, abs=1e-12)
        assert abs(mu1(cells, 2, 1.0, 1)) == pytest.approx(2 / math.pi, abs=1e-12)

    def test_unbiasedness(self):
        # mean over trials approximates the Lebesgue transform (zero at
        # nonzero integers) within 3 sigma of the Monte Carlo error
        N1, beta, trials = 1024, 0.5, 400
        cfg = RandomFractalConfig(beta, (N1,), 1, trials, SEED)
        us = np.arange(1, 65, dtype=np.int64)
        acc = np.zeros(len(us), dtype=complex)
        for t in range(trials):
            acc += mu1_hat(randfrac._refine(cfg, t)[0], N1, beta, us)
        mean = acc / trials
        sigma = N1 ** ((beta - 1) / 2) / math.sqrt(trials)
        assert np.all(np.abs(mean) <= 3.5 * sigma)

    def test_float_frequency_is_its_binary_rational(self):
        cfg = RandomFractalConfig(0.5, (4096,), 1, 1, SEED)
        cells = randfrac._refine(cfg, 0)[0]
        for u in (0.1, 2.5, 17.3, 1000.001, 123456.789, -3.7):
            assert mu1(cells, 4096, 0.5, u) == mu1(cells, 4096, 0.5, Fraction(u))

    def test_modulus_bounded_by_inverse_p(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 10, SEED)
        p = 64**-0.5
        for t in range(10):
            cells = randfrac._refine(cfg, t)[0]
            for u in (0, 1, 5, 31.5):
                assert abs(mu1(cells, 64, 0.5, u)) <= 1 / p + 1e-9

    def test_conjugate_symmetry(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        cells = randfrac._refine(cfg, 0)[0]
        for u in (1, 3, 17):
            assert mu1(cells, 64, 0.5, -u) == pytest.approx(mu1(cells, 64, 0.5, u).conjugate(), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        # an integer batch equals its singleton calls bit for bit, u = 0
        # included, and the oracle to 1e-12; the closing factor is the
        # scalar cmath one, whose rounding the spectrum files print
        cfg = RandomFractalConfig(0.5, (256,), 1, 1, SEED)
        cells, p = randfrac._refine(cfg, 0)[0], 256**-0.5
        us = [1, 2, 0, 9, 100, -3, 255]
        vec = mu1_hat(cells, 256, 0.5, us)
        assert vec.shape == (len(us),)
        for u, v in zip(us, vec):
            assert complex(v) == mu1(cells, 256, 0.5, u)
            if u != 0:
                want = naive_mu1(cells.tolist(), 256, 0.5, Fraction(u))
                assert v == pytest.approx(want, abs=1e-12)
                factor = (1 - cmath.exp(-2j * math.pi * float(u) / 256)) / (2j * math.pi * float(u))
                assert complex(v) == complex(exp_sum(cells, 256, [u])[0]) * factor / p
        assert vec[2] == len(cells) / (256**-0.5 * 256)

    def test_mixed_denominator_batch(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        cells = randfrac._refine(cfg, 0)[0]
        us = [Fraction(1, 3), 5, Fraction(-7, 2), 0, Fraction(129, 4), 2.5]
        vec = mu1_hat(cells, 64, 0.5, us)
        for u, v in zip(us, vec):
            if u == 0:
                assert v == len(cells) / (64**-0.5 * 64)
            else:
                assert v == pytest.approx(naive_mu1(cells.tolist(), 64, 0.5, Fraction(u)), abs=1e-12)

    def test_empty_trial_and_empty_batch(self):
        extinct = np.zeros(0, dtype=np.int64)
        assert np.array_equal(mu1_hat(extinct, 16, 0.9, [0, 1, Fraction(1, 2)]), np.zeros(3))
        cells = randfrac._refine(RandomFractalConfig(0.5, (64,), 1, 1, SEED), 0)[0]
        assert mu1_hat(cells, 64, 0.5, []).shape == (0,)

    def test_grid_reduced_once_keeps_bits(self):
        # the frequencies are reduced once per call and shared by its
        # trials; a range, a list and a tuple of the same us, and a second
        # trial, give the bits of reducing them afresh for every trial
        N1, beta = 1024, 0.5

        def fresh(cells, us):
            p = N1 ** (-beta)
            qs = [Fraction(u) for u in us]
            D = math.lcm(*(q.denominator for q in qs))
            combs = exp_sum(cells, N1 * D, [q.numerator * (D // q.denominator) for q in qs])
            out = np.zeros(len(qs), dtype=complex)
            for i, (q, comb) in enumerate(zip(qs, combs)):
                if q == 0:
                    out[i] = len(cells) / (p * N1)
                else:
                    factor = (1 - cmath.exp(-2j * math.pi * float(q) / N1)) / (2j * math.pi * float(q))
                    out[i] = complex(comb) * factor / p
            return out

        cfg = RandomFractalConfig(beta, (N1,), 1, 2, SEED)
        for t in range(2):
            cells = randfrac._refine(cfg, t)[0]
            want = fresh(cells, range(65)).view(np.int64)
            for us in (range(65), list(range(65)), tuple(range(65))):
                assert np.array_equal(mu1_hat(cells, N1, beta, us).view(np.int64), want)
        halves = [Fraction(1, 2), 3, 2.5, 0]
        assert np.array_equal(mu1_hat(cells, N1, beta, halves).view(np.int64), fresh(cells, halves).view(np.int64))

    @given(
        N1=st.sampled_from([16, 64, 256, 1000, 4096]),
        beta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]),
        trials=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
        us=st.lists(
            st.one_of(
                st.integers(-300, 300), st.fractions(-500, 500, max_denominator=12), st.sampled_from([0, 2.5, 0.1, -3.7])
            ),
            max_size=12,
        ),
    )
    @example(N1=16, beta=0.9, trials=8, seed=7, us=[0, 1, 2, Fraction(1, 3), Fraction(-7, 2), 2.5, 0.1])
    @settings(max_examples=40, deadline=None)
    def test_grouped_closing_matches_scalar_loop(self, N1, beta, trials, seed, us):
        # the vectorised closing step of every trial's row is the scalar
        # complex(comb) * factor / p bit for bit, at integer, rational and
        # u = 0 frequencies, with extinct trials' rows exactly 0; and each
        # row is mu1_hat of that trial alone
        cfg = RandomFractalConfig(beta, (N1,), 1, trials, seed)
        stage1 = [randfrac._refine(cfg, t)[0] for t in range(trials)]
        got = randfrac._mu1_hats(stage1, N1, beta, us)
        assert got.shape == (trials, len(us))
        p = N1 ** (-beta)
        qs = [Fraction(u) for u in us]
        D = math.lcm(*(q.denominator for q in qs))
        combs = exp_sums(stage1, N1 * D, [q.numerator * (D // q.denominator) for q in qs])
        want = np.zeros((trials, len(us)), dtype=complex)
        for t, cells in enumerate(stage1):
            for i, q in enumerate(qs):
                if not len(cells):
                    continue
                if q == 0:
                    want[t, i] = len(cells) / (p * N1)
                else:
                    factor = (1 - cmath.exp(-2j * math.pi * float(q) / N1)) / (2j * math.pi * float(q))
                    want[t, i] = complex(combs[t, i]) * factor / p
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for cells, row in zip(stage1, got):
            assert np.array_equal(row.view(np.int64), mu1_hat(cells, N1, beta, us).view(np.int64))

    def test_rational_frequency(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        cells = randfrac._refine(cfg, 0)[0]
        for u in (Fraction(1, 3), Fraction(-7, 2), Fraction(129, 4)):
            assert mu1(cells, 64, 0.5, u) == pytest.approx(naive_mu1(cells.tolist(), 64, 0.5, u), abs=1e-12)


class TestLemma63:
    def test_beta_zero_always_satisfied(self):
        cfg = RandomFractalConfig(0.0, (64,), 1, 20, SEED)
        report = lemma63_experiment(cfg, 1.0, 32)
        assert report.satisfied_fraction == 1.0

    def test_monotone_trend_in_N1(self):
        fractions = []
        for N1 in (256, 1024, 4096):
            cfg = RandomFractalConfig(0.5, (N1,), 1, 100, SEED)
            fractions.append(lemma63_experiment(cfg, 1.0, 64).satisfied_fraction)
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_satisfied_fraction_matches_per_trial_loop(self):
        # the grouped experiment against one mu1_hat per trial.  The second
        # config has 8 extinct trials of 50, whose zero transform passes
        # exactly when epsilon1 > 0
        cases = [
            ((0.5, 256, 60, SEED), 64, 1.0, None),
            ((0.9, 16, 50, 7), 16, 1.0, 0.62),
            ((0.9, 16, 50, 7), 16, 0.0, 0.0),
        ]
        for (beta, N1, trials, seed), u_max, epsilon, fraction in cases:
            cfg = RandomFractalConfig(beta, (N1,), 1, trials, seed)
            us = range(2, u_max + 1)
            bounds = epsilon * np.arange(2, u_max + 1, dtype=float) ** ((beta - 1.0) / 2.0)
            # the cells from the build-all-children oracle, not the experiment's refinement
            stage1 = [reference_refine(cfg, t)[0] for t in range(trials)]
            hits = sum(below(mu1_hat(cells, N1, beta, us), bounds) for cells in stage1)
            got = lemma63_experiment(cfg, epsilon, u_max).satisfied_fraction
            assert got == hits / trials
            if fraction is None:
                assert 0 < hits < trials
            else:
                assert sum(not len(cells) for cells in stage1) == 8
                assert got == fraction

    def test_one_kernel_call_per_experiment(self, monkeypatch, tmp_path):
        # every trial is summed by one exp_sums call; the CLI's --spectrum
        # adds one more, for trial 0
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return exp_sums(*args)

        monkeypatch.setattr(randfrac, "exp_sums", counted)
        cfg = RandomFractalConfig(0.5, (256,), 1, 60, SEED)
        lemma63_experiment(cfg, 1.0, 64)
        assert calls == [60]
        calls.clear()
        assert run_command(["lemma63", "--beta", "0.5", "--n1", "256", "--trials", "60", "--u-max", "64",
                            "--seed", str(SEED), "--spectrum", str(tmp_path / "s.csv"),
                            "--output", str(tmp_path / "l.json")]) == 0
        assert calls == [60, 1]

    @pytest.mark.parametrize("per_batch", [1, 3, 7])
    def test_small_batches_keep_fraction_and_bits(self, per_batch):
        # forced batches of 1, 3 and 7 trials (the last one shorter): one
        # _mu1_hats call a batch, whose rows, stacked, are the bits of one
        # call over every trial, so the fraction is the one-batch fraction.
        # The second config has 8 extinct trials of 50.
        for beta, N1, trials, seed, u_max in [(0.5, 256, 20, SEED, 64), (0.9, 16, 50, 7, 16)]:
            cfg = RandomFractalConfig(beta, (N1,), 1, trials, seed)
            us = range(2, u_max + 1)
            want = randfrac._mu1_hats([randfrac._refine(cfg, t)[0] for t in range(trials)], N1, beta, us)
            fraction = lemma63_experiment(cfg, 1.0, u_max).satisfied_fraction
            mu1_hats = randfrac._mu1_hats
            seen = []

            def spy(cells, *args):
                seen.append(mu1_hats(cells, *args))
                return seen[-1]

            with pytest.MonkeyPatch.context() as mp:
                # one entry more than per_batch trials hold, so the float
                # quotient cannot round below per_batch
                mp.setattr(randfrac, "_LEMMA_BATCH_ENTRIES", per_batch * (N1 ** (1.0 - beta) + len(us)) + 1)
                mp.setattr(randfrac, "_mu1_hats", spy)
                assert lemma63_experiment(cfg, 1.0, u_max).satisfied_fraction == fraction
            assert [len(v) for v in seen] == [len(range(lo, min(lo + per_batch, trials)))
                                              for lo in range(0, trials, per_batch)]
            assert np.array_equal(np.concatenate(seen).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("N1", [256, 1024, 4096])
    def test_benchmark_runs_take_one_batch(self, monkeypatch, N1):
        calls = []
        mu1_hats = randfrac._mu1_hats
        monkeypatch.setattr(randfrac, "_mu1_hats", lambda cells, *args: calls.append(len(cells)) or mu1_hats(cells, *args))
        lemma63_experiment(RandomFractalConfig(0.5, (N1,), 1, 200, SEED), 1.0, 64)
        assert calls == [200]

    def test_moduli_are_complex_abs(self, monkeypatch):
        # transforms on the bound at u = 2, in every direction: a trial
        # passes exactly when complex abs of its value is below the bound
        cfg = RandomFractalConfig(0.5, (16,), 1, 200, SEED)
        bound = np.arange(2, 3, dtype=float) ** ((cfg.beta - 1.0) / 2.0)
        angles = np.random.default_rng(3).uniform(0, 2 * np.pi, cfg.trials)
        vals = (bound * np.exp(1j * angles))[:, None]
        monkeypatch.setattr(randfrac, "_mu1_hats", lambda *args: vals)
        want = sum(below(row, bound) for row in vals) / cfg.trials
        assert 0 < want < 1
        assert lemma63_experiment(cfg, 1.0, 2).satisfied_fraction == want

    def test_u_max_validated(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 5, SEED)
        with pytest.raises(ValueError):
            lemma63_experiment(cfg, 1.0, 128)

    def test_depth_one_required(self):
        cfg = RandomFractalConfig(0.5, (64, 64), 2, 5, SEED)
        with pytest.raises(ValueError):
            lemma63_experiment(cfg, 1.0, 32)


class TestCorollary64:
    def test_beta_zero_hits_cap(self):
        cfg = RandomFractalConfig(0.0, (16, 16), 2, 1, SEED)
        est = corollary64_check(randfrac._refine(cfg, 0)[-1], cfg.resolution())
        assert est.alpha == est.cap
        assert order_experiment(cfg).alphas == (est.alpha,)

    def test_single_cell_zero(self):
        assert corollary64_check(np.array([50], dtype=np.int64), 256).alpha == 0.0

    def test_beta_half_median_order(self):
        cfg = RandomFractalConfig(0.5, (64, 64, 64), 3, 50, SEED)
        alphas = sorted(order_experiment(cfg).alphas)
        median = alphas[len(alphas) // 2]
        assert 0.35 <= median <= 0.65


class TestOrderExperiment:
    def test_matches_survivor_loop(self, tmp_path):
        cfg = RandomFractalConfig(0.9, (4, 4), 2, 40, SEED)
        alphas, extinct = survivor_alphas(cfg)
        assert 0 < extinct < cfg.trials
        stats = order_experiment(cfg)
        assert stats.alphas == tuple(alphas)
        assert stats.extinct == extinct
        assert stats.trials == cfg.trials
        assert stats.median_alpha == statistics.median(alphas)
        assert stats.target_order == 1.0 - cfg.beta
        out = tmp_path / "c.json"
        assert run_command(["corollary64", "--beta", "0.9", "--levels", "4,4", "--depth", "2",
                            "--trials", "40", "--seed", str(SEED), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"target_order", "median_alpha", "alphas", "extinct", "trials"}
        assert payload["extinct"] == extinct

    def test_all_extinct_has_no_median(self):
        cfg = RandomFractalConfig(0.95, (16, 16), 2, 3, 10)
        stats = order_experiment(cfg)
        assert stats.extinct == 3
        assert stats.alphas == ()
        assert stats.median_alpha is None
        assert json.loads(canonical_json(stats))["median_alpha"] is None

    # The trials are scored from the int64 arrays of the refinement by one
    # grouped call, the oracle from the same cells through NApproximation,
    # one exp_sum call per survivor.  The cases take each phase path, and
    # ``tabulated`` counts the calls, oracle's and experiment's, that
    # gather from the table of unit roots: those that ask for at least M
    # phases themselves.  At M = 210,000 (not a power of two, reduced with
    # % M) each dense trial of beta = 1/4 asks for 0.8-1.0 million phases, so all
    # 5 calls gather.  The sparse trials of beta = 3/4, some of them
    # extinct, ask for 19,760 phases in all, so every call exponentiates.
    # M = 2,100,000 > 2**20 is above the table.  M = 64 reduces with the
    # mask: 12 of the 19 survivors ask for 64 phases or more, and the
    # grouped call for 1,536, so 13 calls gather and the other 7
    # exponentiate, however many gathered before them at the same M.
    @pytest.mark.parametrize(
        "beta, sizes, trials, extinct, tabulated",
        [(0.25, (10, 30, 700), 4, 0, 5), (0.75, (10, 30, 700), 12, 3, 0),
         (0.75, (10, 300, 700), 6, 1, 0), (0.9, (4, 4, 4), 30, 11, 13)],
        ids=["table", "exp", "above-table", "mask"],
    )
    def test_alphas_match_corollary64_check(self, beta, sizes, trials, extinct, tabulated, tabulated_calls):
        cfg = RandomFractalConfig(beta, sizes, 3, trials, SEED)
        alphas, oracle_extinct = survivor_alphas(cfg)
        assert oracle_extinct == extinct
        stats = order_experiment(cfg)
        assert stats.alphas == tuple(alphas)
        assert stats.extinct == extinct
        assert tabulated_calls() == tabulated

    def test_one_kernel_call_per_experiment(self, monkeypatch):
        # every surviving final stage is scored by one exp_sums call, a row
        # per survivor; an experiment whose trials all went extinct makes
        # none
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return exp_sums(*args)

        monkeypatch.setattr(equidist, "exp_sums", counted)
        stats = order_experiment(RandomFractalConfig(0.9, (4, 4), 2, 40, SEED))
        assert 0 < stats.extinct < stats.trials
        assert calls == [len(stats.alphas)]
        calls.clear()
        assert order_experiment(RandomFractalConfig(0.95, (16, 16), 2, 3, 10)).extinct == 3
        assert calls == []

    @pytest.mark.parametrize("bound", [1, 40, 10**6])
    def test_batches_of_whole_trials_keep_the_bits(self, monkeypatch, bound):
        # A trial at M = 16 expects 16**(1 - 0.9) ~ 1.32 cells, so the
        # bounds take 1, 30 and all 40 trials a batch.  Every batch is one
        # call with a row per survivor, and each alpha keeps its bits.
        cfg = RandomFractalConfig(0.9, (4, 4), 2, 40, SEED)
        want = order_experiment(cfg)
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return exp_sums(*args)

        monkeypatch.setattr(randfrac, "_BATCH_CELLS", bound)
        monkeypatch.setattr(equidist, "exp_sums", counted)
        assert order_experiment(cfg) == want
        per_batch = max(1, int(bound // 16 ** (1 - 0.9)))
        finals = [randfrac._refine(cfg, t)[-1] for t in range(cfg.trials)]
        survivors = [sum(f.size > 0 for f in finals[lo : lo + per_batch]) for lo in range(0, 40, per_batch)]
        assert calls == [n for n in survivors if n]
        assert len(calls) > 1 or bound == 10**6

    @pytest.mark.parametrize("beta, levels, trials, calls", [
        # The benchmark's corollary-6.4 runs: one call each.
        (0.25, (64, 64, 64), 50, [50]),
        (0.5, (64, 64, 64), 50, [50]),
        # The 64**4 order rung holds two 262k-cell trials at a time.
        (0.25, (64, 64, 64, 64), 20, [2] * 10),
    ])
    def test_batch_sizes_at_scale(self, monkeypatch, beta, levels, trials, calls):
        # Only the batching is checked: every trial's final stage is
        # replaced by one cell, so no trial is drawn at scale.
        seen = []
        monkeypatch.setattr(randfrac, "_refine", lambda config, t: [np.array([t], dtype=np.int64)])
        monkeypatch.setattr(equidist, "exp_sums", lambda groups, *args: seen.append(len(groups)) or exp_sums(groups, *args))
        order_experiment(RandomFractalConfig(beta, levels, len(levels), trials, SEED))
        assert seen == calls

    def test_survivor_below_16_refused(self):
        # M = 8 is too coarse to sweep; trial 0 keeps 2 of its 8 cells
        cfg = RandomFractalConfig(0.5, (2, 2, 2), 3, 4, 0)
        final = randfrac._refine(cfg, 0)[-1]
        assert final.size
        for run in (lambda: order_experiment(cfg), lambda: corollary64_check(final, cfg.resolution())):
            with pytest.raises(ValueError, match="^the largest N must be at least 16$"):
                run()

    def test_all_extinct_below_16_not_refused(self):
        # no trial survives, so no sweep is needed and M = 8 is not refused
        cfg = RandomFractalConfig(0.95, (2, 2, 2), 3, 3, 18)
        assert order_experiment(cfg) == OrderStats(1.0 - 0.95, None, (), 3, 3)


def serial_dimension(config):
    """Oracle for dimension_experiment's sharing: the dims and extinct
    share from a loop over the trials' final counts on this thread."""
    counts = [randfrac._final_count(config, t) for t in range(config.trials)]
    M = config.resolution()
    return tuple(math.log(c) / math.log(M) for c in counts if c), sum(c == 0 for c in counts) / config.trials


def serial_alphas(config):
    """Oracle for order_experiment's sharing: the fitted order of each
    surviving trial, from a loop over _refine and equidist_order on this
    thread; ValueError when a trial survives at M < 16."""
    M = config.resolution()
    finals = [randfrac._refine(config, t)[-1] for t in range(config.trials)]
    return [equidist_order([NApproximation(M, f)]).alpha for f in finals if f.size]


@st.composite
def shared_configs(draw):
    """Small configs of depth at least 3: extinct trials at high beta, fewer
    trials than 4 threads, and resolutions below 16."""
    sizes = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 7, 16]), min_size=3, max_size=4)))
    beta = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]))
    depth = draw(st.integers(3, len(sizes)))
    trials = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**64 - 1))
    return RandomFractalConfig(beta, sizes, depth, trials, seed)


class TestSharedTrials:
    @given(config=shared_configs())
    @example(config=RandomFractalConfig(0.5, (2, 2, 2), 3, 4, 0))  # a survivor at M = 8
    @example(config=RandomFractalConfig(0.9, (4, 4, 4), 3, 6, 5))  # extinct trials
    @settings(max_examples=40, deadline=None)
    def test_shared_trials_keep_their_bits(self, config):
        # at 1, 2 and 4 threads, the experiments give the serial loops'
        # numbers by ==, and refuse M < 16 exactly when the loop does
        dims, extinct = serial_dimension(config)
        try:
            alphas, refusal = serial_alphas(config), None
        except ValueError as exc:
            alphas, refusal = None, str(exc)
        for workers in (1, 2, 4):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core_sets, "_WORKERS", workers)
                stats = dimension_experiment(config)
                assert stats.dims == dims
                assert stats.extinct == extinct
                if refusal is not None:
                    with pytest.raises(ValueError, match=f"^{refusal}$"):
                        order_experiment(config)
                    continue
                orders = order_experiment(config)
                assert orders.alphas == tuple(alphas)
                assert orders.median_alpha == (statistics.median(alphas) if alphas else None)

    @given(
        beta=st.sampled_from([0.0, 0.5, 0.9]),
        N1=st.sampled_from([16, 64, 256]),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(beta=0.9, N1=16, trials=9, seed=7)  # extinct trials
    @settings(max_examples=30, deadline=None)
    def test_shared_lemma_draws_keep_their_bits(self, beta, N1, trials, seed):
        # at 1, 2 and 4 threads, lemma 6.3 draws the stage-1 cells of a
        # serial _refine loop and sums them to the bits of one serial
        # _mu1_hats call, so its fraction is the loop's
        cfg = RandomFractalConfig(beta, (N1,), 1, trials, seed)
        us = range(2, 17)
        stage1 = [randfrac._refine(cfg, t)[0] for t in range(trials)]
        mu1_hats = randfrac._mu1_hats
        want = mu1_hats(stage1, N1, beta, us)
        bounds = np.arange(2, 17, dtype=float) ** ((beta - 1.0) / 2.0)
        fraction = sum(below(row, bounds) for row in want) / trials
        for workers in (1, 2, 4):
            seen = []

            def spy(cells, *args):
                seen.append((cells, mu1_hats(cells, *args)))
                return seen[-1][1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core_sets, "_WORKERS", workers)
                mp.setattr(randfrac, "_mu1_hats", spy)
                assert lemma63_experiment(cfg, 1.0, 16).satisfied_fraction == fraction
            (cells, vals), = seen
            assert len(cells) == trials
            assert all(np.array_equal(c, s) and c.dtype == np.int64 for c, s in zip(cells, stage1))
            assert np.array_equal(vals.view(np.int64), want.view(np.int64))

    def test_second_thread_costs_one_block_pair(self, monkeypatch):
        # at W = 2 the calling thread allocates one more residue and phase
        # block pair, for the second thread, whose trials' draws and
        # keep-masks fill it in place, and one more for the slabs that the
        # second thread takes of the grouped exp_sums call after them.
        # Beside the pair, the peak may hold what a second thread holds at
        # once: a trial's cells, and the two buffers of np.getbufsize()
        # int64 entries that numpy's ufunc iterator takes for exp_sums'
        # outer product of rows shorter than that (none of them is one of
        # the blocks).  The unit-root table is built before the peaks.
        # Each trial draws 4 + 65,536 * 4**0.5 uniforms on average, more
        # than one block, so its trials are shared, while its final stages
        # stay small (about 512 cells a trial).
        cfg = RandomFractalConfig(0.5, (4, 65536), 2, 8, SEED)
        assert randfrac._expected_draws(cfg) > _CHUNK
        peaks = {}
        for workers in (1, 2):
            monkeypatch.setattr(core_sets, "_WORKERS", workers)
            want = order_experiment(cfg)
            tracemalloc.start()
            try:
                got = order_experiment(cfg)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
        assert peaks[2] <= peaks[1] + _CHUNK * (8 + 16) + 2 * 8 * np.getbufsize() + (1 << 16)

    @given(config=shared_configs())
    @example(config=RandomFractalConfig(0.5, (2, 2, 2), 3, 4, 0))  # a survivor at M = 8
    @example(config=RandomFractalConfig(0.9, (4, 4, 4), 3, 6, 5))  # extinct trials
    @settings(max_examples=25, deadline=None)
    def test_trials_past_the_threshold_keep_their_bits(self, config):
        # with blocks of 4 draws every trial's expected draws exceed one
        # block, so the trials themselves are shared among 1, 2 and 4
        # threads, and the experiments give the serial loops' numbers by ==
        dims, extinct = serial_dimension(config)
        try:
            alphas, refusal = serial_alphas(config), None
        except ValueError as exc:
            alphas, refusal = None, str(exc)
        for workers in (1, 2, 4):
            shared = []

            def spy(fn, n, entries):
                shared.append(n)
                return core_sets._share(fn, n, entries)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core_sets, "_WORKERS", workers)
                mp.setattr(randfrac, "_CHUNK", 4)
                mp.setattr(randfrac, "_share", spy)
                stats = dimension_experiment(config)
                assert shared == [config.trials]
                assert (stats.dims, stats.extinct) == (dims, extinct)
                if refusal is not None:
                    with pytest.raises(ValueError, match=f"^{refusal}$"):
                        order_experiment(config)
                    continue
                assert order_experiment(config).alphas == tuple(alphas)
                assert shared == [config.trials, config.trials]

    @given(
        beta=st.sampled_from([0.0, 0.5, 0.9]),
        N1=st.sampled_from([16, 64, 256]),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(beta=0.9, N1=16, trials=9, seed=7)  # extinct trials
    @settings(max_examples=20, deadline=None)
    def test_lemma_draws_past_the_threshold_keep_their_bits(self, beta, N1, trials, seed):
        # with blocks of 4 draws the N_1 stage-1 draws of a trial exceed
        # one block, so lemma 6.3 shares its trials, and its fraction is
        # that of a serial _refine loop
        cfg = RandomFractalConfig(beta, (N1,), 1, trials, seed)
        stage1 = [randfrac._refine(cfg, t)[0] for t in range(trials)]
        want = randfrac._mu1_hats(stage1, N1, beta, range(2, 17))
        bounds = np.arange(2, 17, dtype=float) ** ((beta - 1.0) / 2.0)
        fraction = sum(below(row, bounds) for row in want) / trials
        for workers in (1, 2, 4):
            shared = []

            def spy(fn, n, entries):
                shared.append(n)
                return core_sets._share(fn, n, entries)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core_sets, "_WORKERS", workers)
                mp.setattr(randfrac, "_CHUNK", 4)
                mp.setattr(randfrac, "_share", spy)
                assert lemma63_experiment(cfg, 1.0, 16).satisfied_fraction == fraction
            assert shared == [trials]


class TestDrawThreshold:
    def test_expected_draws_closed_form(self):
        # sum_i N_i * prod_{j<i} N_j**(1 - beta), summed stage by stage
        cfg = RandomFractalConfig(0.25, (64, 64, 64, 64), 4, 1, SEED)
        want = sum(64 * 64 ** (0.75 * i) for i in range(4))
        assert randfrac._expected_draws(cfg) == pytest.approx(want, rel=1e-12)
        assert randfrac._expected_draws(cfg) == pytest.approx(775_735.35, abs=0.01)
        # only the configured depth counts, and a level of 1 keeps its cell
        assert randfrac._expected_draws(RandomFractalConfig(0.5, (9, 1, 100), 2, 1, SEED)) == 9 + 3
        assert randfrac._expected_draws(RandomFractalConfig(0.0, (4, 4), 2, 1, SEED)) == 4 + 16

    # The benchmark's random_fractal steps: random-salem's 64**4
    # dimension trials share, corollary 6.4's 64**3 orders and lemma 6.3's
    # stage-1 draws run on the calling thread.
    BENCHMARK_CONFIGS = [
        ((0.25, (64, 64, 64, 64), 4, 20), True),
        ((0.25, (64, 64, 64), 3, 50), False),
        ((0.5, (64, 64, 64), 3, 50), False),
        ((0.5, (256,), 1, 200), False),
        ((0.5, (1024,), 1, 200), False),
        ((0.5, (4096,), 1, 200), False),
    ]

    @pytest.mark.parametrize("args, shared", BENCHMARK_CONFIGS)
    def test_benchmark_configs_side(self, args, shared):
        assert (randfrac._expected_draws(RandomFractalConfig(*args, SEED)) > _CHUNK) is shared

    @pytest.mark.parametrize("args, shared", BENCHMARK_CONFIGS[:3])
    def test_draw_trials_takes_the_side(self, args, shared, monkeypatch):
        calls = []
        monkeypatch.setattr(randfrac, "_share", lambda fn, n, entries: calls.append(n) or [fn(i) for i in range(n)])
        cfg = RandomFractalConfig(*args, SEED)
        trials = range(3, 7)
        got = randfrac._draw_trials(cfg, lambda t: randfrac._refine(cfg, t)[-1], trials)
        assert calls == ([4] if shared else [])
        assert all(np.array_equal(g, randfrac._refine(cfg, t)[-1]) for g, t in zip(got, trials))
