import cmath
import json
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import randfrac
from salemkit.randfrac import (
    RandomFractalConfig,
    TrialResult,
    corollary64_check,
    dimension_experiment,
    generate_trial,
    lemma63_experiment,
    mu1_hat,
    order_experiment,
)
from salemkit.cli import run_command
from salemkit.core_sets import _CHUNK, exp_sum
from salemkit.formats import canonical_json

SEED = 20260810


def mu1(trial, u):
    """mu1_hat at a single frequency."""
    return complex(mu1_hat(trial, [u])[0])


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
        # take the same draws from the stream, so the cells do not change.
        config = RandomFractalConfig(0.25, (64, 64, 64, 64), 4, 1, SEED)
        expected = reference_refine(config, 0)
        assert expected[-2].size * 64 > 4 * _CHUNK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randfrac, "_CHUNK", chunk)
            assert_same_stages(randfrac._refine(config, 0), expected)


class TestGenerateTrial:
    def test_beta_zero_full_survival(self):
        cfg = RandomFractalConfig(0.0, (4, 4, 4), 3, 1, SEED)
        trial = generate_trial(cfg, 0)
        assert trial.white_counts == (4, 16, 64)
        assert not trial.extinct

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
            trial = generate_trial(cfg, t)
            assert trial.stages == stages
            assert all(type(c) is int for stage in trial.stages for c in stage)
            assert trial.white_counts == tuple(len(s) for s in stages)
            assert trial.extinct == (len(stages) < len(sizes) or not stages[-1])

    def test_deterministic_replay(self):
        cfg = RandomFractalConfig(0.5, (16, 16, 16), 3, 2, SEED)
        assert generate_trial(cfg, 0) == generate_trial(cfg, 0)
        assert generate_trial(cfg, 0) != generate_trial(cfg, 1)

    def test_resolution_beyond_int64_rejected(self):
        # cells are int64: M = 2**64 would wrap; only construct, since
        # generating at this size would allocate tens of GiB
        with pytest.raises(ValueError, match="2\\*\\*63"):
            RandomFractalConfig(0.75, (65536,) * 4, 4, 5, SEED)
        assert RandomFractalConfig(0.75, (65536,) * 4, 3, 5, SEED).resolution() == 2**48

    def test_order_independent_of_other_trials(self):
        cfg = RandomFractalConfig(0.5, (16, 16), 2, 5, SEED)
        direct = generate_trial(cfg, 3)
        _ = [generate_trial(cfg, t) for t in (4, 1, 0)]
        assert generate_trial(cfg, 3) == direct

    def test_nesting(self):
        cfg = RandomFractalConfig(0.3, (8, 8, 8), 3, 1, SEED)
        trial = generate_trial(cfg, 0)
        for size, parents, children in zip(trial.level_sizes[1:], trial.stages, trial.stages[1:]):
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
            abs(generate_trial(cfg, t).white_counts[0] - 64) <= 3 * sigma for t in range(1000)
        )
        assert hits >= 990

    def test_extinction_flagged_not_resampled(self):
        # beta close to 1 on tiny levels dies out fast
        cfg = RandomFractalConfig(0.99, (2, 2, 2, 2), 4, 40, SEED)
        seen_extinct = False
        for t in range(40):
            trial = generate_trial(cfg, t)
            if trial.extinct:
                seen_extinct = True
                assert len(trial.stages) <= 4
                assert trial.white_counts[-1] == 0 or len(trial.stages) < 4
        assert seen_extinct


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
        # the experiment reads counts off the refinement arrays; the oracle
        # reads them off generate_trial, extinct trials included
        cfg = RandomFractalConfig(beta, sizes, 3, trials, SEED)
        results = [generate_trial(cfg, t) for t in range(trials)]
        M = math.prod(sizes)
        dims = [math.log(r.white_counts[-1]) / math.log(M) for r in results if not r.extinct]
        extinct = sum(r.extinct for r in results)
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
        trial = generate_trial(cfg, 0)
        for u in (1, 2, 7):
            assert abs(mu1(trial, u)) < 1e-12
        assert mu1(trial, 0) == 1.0

    def test_single_cell_closed_form(self):
        # p = 1/2 on two cells, only cell 0 white: density 2 on [0, 1/2)
        trial = TrialResult(1.0, (2,), ((0,),), (1,), False, 0, 0)
        expected = 2 * (1 - cmath.exp(-1j * math.pi)) / (2j * math.pi)
        assert mu1(trial, 1) == pytest.approx(expected, abs=1e-12)
        assert abs(mu1(trial, 1)) == pytest.approx(2 / math.pi, abs=1e-12)

    def test_unbiasedness(self):
        # mean over trials approximates the Lebesgue transform (zero at
        # nonzero integers) within 3 sigma of the Monte Carlo error
        N1, beta, trials = 1024, 0.5, 400
        cfg = RandomFractalConfig(beta, (N1,), 1, trials, SEED)
        us = np.arange(1, 65, dtype=np.int64)
        acc = np.zeros(len(us), dtype=complex)
        for t in range(trials):
            acc += mu1_hat(generate_trial(cfg, t), us)
        mean = acc / trials
        sigma = N1 ** ((beta - 1) / 2) / math.sqrt(trials)
        assert np.all(np.abs(mean) <= 3.5 * sigma)

    def test_float_frequency_is_its_binary_rational(self):
        cfg = RandomFractalConfig(0.5, (4096,), 1, 1, SEED)
        trial = generate_trial(cfg, 0)
        for u in (0.1, 2.5, 17.3, 1000.001, 123456.789, -3.7):
            assert mu1(trial, u) == mu1(trial, Fraction(u))

    def test_modulus_bounded_by_inverse_p(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 10, SEED)
        p = 64**-0.5
        for t in range(10):
            trial = generate_trial(cfg, t)
            for u in (0, 1, 5, 31.5):
                assert abs(mu1(trial, u)) <= 1 / p + 1e-9

    def test_conjugate_symmetry(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        trial = generate_trial(cfg, 0)
        for u in (1, 3, 17):
            assert mu1(trial, -u) == pytest.approx(mu1(trial, u).conjugate(), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        # an integer batch equals its singleton calls bit for bit, u = 0
        # included, and the oracle to 1e-12; the closing factor is the
        # scalar cmath one, whose rounding the spectrum files print
        cfg = RandomFractalConfig(0.5, (256,), 1, 1, SEED)
        trial = generate_trial(cfg, 0)
        cells, p = trial.stages[0], 256**-0.5
        us = [1, 2, 0, 9, 100, -3, 255]
        vec = mu1_hat(trial, us)
        assert vec.shape == (len(us),)
        for u, v in zip(us, vec):
            assert complex(v) == mu1(trial, u)
            if u != 0:
                want = naive_mu1(cells, 256, 0.5, Fraction(u))
                assert v == pytest.approx(want, abs=1e-12)
                factor = (1 - cmath.exp(-2j * math.pi * float(u) / 256)) / (2j * math.pi * float(u))
                assert complex(v) == complex(exp_sum(cells, 256, [u])[0]) * factor / p
        assert vec[2] == len(trial.stages[0]) / (256**-0.5 * 256)

    def test_mixed_denominator_batch(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        trial = generate_trial(cfg, 0)
        us = [Fraction(1, 3), 5, Fraction(-7, 2), 0, Fraction(129, 4), 2.5]
        vec = mu1_hat(trial, us)
        for u, v in zip(us, vec):
            if u == 0:
                assert v == len(trial.stages[0]) / (64**-0.5 * 64)
            else:
                assert v == pytest.approx(naive_mu1(trial.stages[0], 64, 0.5, Fraction(u)), abs=1e-12)

    def test_empty_trial_and_empty_batch(self):
        extinct = TrialResult(0.9, (16,), ((),), (0,), True, 0, 0)
        assert np.array_equal(mu1_hat(extinct, [0, 1, Fraction(1, 2)]), np.zeros(3))
        assert np.array_equal(mu1_hat(TrialResult(0.9, (16,), (), (), True, 0, 0), [3]), np.zeros(1))
        trial = generate_trial(RandomFractalConfig(0.5, (64,), 1, 1, SEED), 0)
        assert mu1_hat(trial, []).shape == (0,)

    def test_grid_reduced_once_keeps_bits(self):
        # the frequencies are reduced once per (N_1, us) and shared by every
        # trial; a range, a list and a tuple of the same us, and a second
        # trial, give the bits of reducing them afresh on every call
        def fresh(trial, us):
            cells, N1 = trial.stages[0], trial.level_sizes[0]
            p = N1 ** (-trial.beta)
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

        cfg = RandomFractalConfig(0.5, (1024,), 1, 2, SEED)
        for t in range(2):
            trial = generate_trial(cfg, t)
            want = fresh(trial, range(65)).view(np.int64)
            for us in (range(65), list(range(65)), tuple(range(65))):
                assert np.array_equal(mu1_hat(trial, us).view(np.int64), want)
        halves = [Fraction(1, 2), 3, 2.5, 0]
        assert np.array_equal(mu1_hat(trial, halves).view(np.int64), fresh(trial, halves).view(np.int64))

    def test_rational_frequency(self):
        cfg = RandomFractalConfig(0.5, (64,), 1, 1, SEED)
        trial = generate_trial(cfg, 0)
        for u in (Fraction(1, 3), Fraction(-7, 2), Fraction(129, 4)):
            assert mu1(trial, u) == pytest.approx(naive_mu1(trial.stages[0], 64, 0.5, u), abs=1e-12)


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
        cfg = RandomFractalConfig(0.5, (256,), 1, 60, SEED)
        us = range(2, 65)
        bounds = 1.0 * np.arange(2, 65, dtype=float) ** ((0.5 - 1.0) / 2.0)
        hits = sum(bool(np.all(np.abs(mu1_hat(generate_trial(cfg, t), us)) < bounds)) for t in range(60))
        assert 0 < hits < 60
        assert lemma63_experiment(cfg, 1.0, 64).satisfied_fraction == hits / 60

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
        est = corollary64_check(generate_trial(cfg, 0))
        assert est.alpha == est.cap

    def test_single_cell_zero(self):
        trial = TrialResult(0.5, (16, 16), ((3,), (50,)), (1, 1), False, 0, 0)
        assert corollary64_check(trial).alpha == 0.0

    def test_extinct_rejected(self):
        trial = TrialResult(0.9, (16, 16), ((3,), ()), (1, 0), True, 0, 0)
        with pytest.raises(ValueError):
            corollary64_check(trial)

    def test_beta_half_median_order(self):
        cfg = RandomFractalConfig(0.5, (64, 64, 64), 3, 50, SEED)
        alphas = []
        for t in range(50):
            trial = generate_trial(cfg, t)
            if not trial.extinct:
                alphas.append(corollary64_check(trial).alpha)
        alphas.sort()
        median = alphas[len(alphas) // 2]
        assert 0.35 <= median <= 0.65


class TestOrderExperiment:
    def test_matches_survivor_loop(self, tmp_path):
        cfg = RandomFractalConfig(0.9, (4, 4), 2, 40, SEED)
        alphas = []
        extinct = 0
        for t in range(cfg.trials):
            trial = generate_trial(cfg, t)
            if trial.extinct:
                extinct += 1
            else:
                alphas.append(corollary64_check(trial).alpha)
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
