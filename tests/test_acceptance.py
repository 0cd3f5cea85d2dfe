"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every check is seeded
and deterministic.  Criterion 7's ternary-control bound is asserted as
stated even though the fitted-order estimator cannot reach it on a flat
envelope at desk scale; the honest separation between the random regime
and the deterministic control is asserted alongside.
"""

import math
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np

import salemkit as sk
from salemkit.cli import run_command
from salemkit.formats import load_integer_set, save_integer_set

SEED = 20260810
LOG23 = math.log(2) / math.log(3)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def naive_full_range_dft(A, ks):
    """Oracle: iterate every n in [0, N), multiply by the indicator."""
    N = A.horizon
    indicator = np.zeros(N)
    indicator[list(A.elements)] = 1.0
    roots = np.exp(-2j * np.pi * np.arange(N) / N)
    n = np.arange(N, dtype=np.int64)
    out = np.empty(len(ks), dtype=complex)
    for i, k in enumerate(ks):
        out[i] = (indicator * roots[k * n % N]).sum() / N
    return out


def test_criterion_1_dft_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_diff = 0.0
    worst_parseval = 0.0
    for case in range(100):
        if case < 2:
            N = 4096
        else:
            N = int(2 ** rng.uniform(4, 12))
        if case % 2:
            A = sk.IntegerSet.from_elements(
                np.flatnonzero(rng.random(N) < rng.uniform(0.05, 0.5)), N
            )
        else:
            n = np.arange(1, N)
            expo = rng.uniform(0.4, 0.9)
            A = sk.IntegerSet.from_elements(n[rng.random(N - 1) < n ** (expo - 1.0)], N)
        if not A.elements:
            A = sk.IntegerSet((0,), N)
        ks = list(range(N))
        sparse = np.array([s.value for s in sk.dft_char(A, ks)])
        naive = naive_full_range_dft(A, ks)
        worst_diff = max(worst_diff, float(np.abs(sparse - naive).max()))
        worst_parseval = max(worst_parseval, abs(float(np.sum(np.abs(sparse) ** 2)) - len(A) / N))
    elapsed = time.time() - t0
    ok = worst_diff < 1e-10 and worst_parseval < 1e-10 and elapsed < 10
    report(1, ok, f"max |sparse-naive| {worst_diff:.2e}, max Parseval defect "
                  f"{worst_parseval:.2e}, {elapsed:.1f}s")
    assert worst_diff < 1e-10
    assert worst_parseval < 1e-10
    assert elapsed < 10


def test_criterion_2_cantor_exactness():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(50):
        depth = int(rng.integers(2, 9))
        levels = []
        for k in range(1, depth + 1):
            size = int(rng.integers(3, 9))
            count = 2 if depth >= 7 else int(rng.integers(2, min(3, size) + 1))
            digits = tuple(sorted(rng.choice(size, size=count, replace=False).tolist()))
            eta = Fraction(1) if rng.random() < 0.3 else sk.default_eta(k)
            levels.append(sk.Level(size, digits, eta))
        plan = sk.LevelPlan(tuple(levels), 0.5, (Fraction(1, 1000), Fraction(1000)))
        stages = [sk.build_stage(plan, d) for d in range(depth + 1)]
        for d in range(1, depth + 1):
            stage, parent = stages[d], stages[d - 1]
            L, Lp = stage.interval_length, parent.interval_length
            for x, y in zip(stage.left_endpoints, stage.left_endpoints[1:]):
                if not x + L <= y:
                    violations += 1
            for x in stage.left_endpoints:
                i = bisect_right(parent.left_endpoints, x) - 1
                xp = parent.left_endpoints[i]
                if not (xp <= x and x + L <= xp + Lp):
                    violations += 1
    ternary = sk.ternary_plan(12)
    box_defect = max(abs(sk.box_dimension(ternary, d) - LOG23) for d in range(2, 13))
    elapsed = time.time() - t0
    ok = violations == 0 and box_defect < 1e-12 and elapsed < 30
    report(2, ok, f"{violations} exactness violations over 50 plans, ternary "
                  f"box-dimension defect {box_defect:.2e}, {elapsed:.1f}s")
    assert violations == 0
    assert box_defect < 1e-12
    assert elapsed < 30


def test_criterion_3_measure_consistency():
    t0 = time.time()
    plan = sk.ternary_plan(8, unit_eta=True)
    stage = sk.build_stage(plan, 8)
    L = float(stage.interval_length)
    weight = 1.0 / len(stage.left_endpoints)
    mids = np.array([float(x + stage.interval_length / 2) for x in stage.left_endpoints])
    worst_margin = -math.inf
    for u in np.arange(0.5, 100.5, 0.5):
        quad = weight * np.exp(-2j * np.pi * u * mids).sum()
        diff = abs(sk.mu_hat(plan, float(u), depth=8) - quad)
        worst_margin = max(worst_margin, diff - 2 * math.pi * L * u)
    deep = sk.ternary_plan(14, unit_eta=True)
    base = abs(sk.mu_hat(deep, 1))
    scale_defect = max(abs(abs(sk.mu_hat(deep, 3**k)) - base) for k in range(1, 7))
    elapsed = time.time() - t0
    ok = worst_margin <= 0 and scale_defect < 1e-9 and elapsed < 10
    report(3, ok, f"quadrature bound margin {worst_margin:.2e}, scaling-identity "
                  f"defect {scale_defect:.2e}, {elapsed:.1f}s")
    assert worst_margin <= 0
    assert scale_defect < 1e-9
    assert elapsed < 10


def test_criterion_4_ap_preservation():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    recovered = descended = 0
    cases = 0
    for n in (3, 4, 5):
        for _ in range(100):
            cases += 1
            start = int(rng.integers(0, 60))
            step = int(rng.integers(1, 25))
            A = sk.IntegerSet.from_elements(start + j * step for j in range(n))
            e1 = (start + (n - 1) * step).bit_length() + int(rng.integers(1, 4))
            e2 = e1 + int(rng.integers(1, 7))
            image = sk.dyadic_embed(A, [e1, e2], 2)
            slope = Fraction(1, 2**e1) + Fraction(1, 2**e2)
            witnesses = sk.find_ap_points(image, n)
            if any(w.start == image[0] and w.difference == step * slope and w.length == n
                   for w in witnesses):
                recovered += 1
            if sk.grid_ap_descent(image, n, e2 + 3) is not None:
                descended += 1
    elapsed = time.time() - t0
    ok = recovered == cases and descended == cases and elapsed < 30
    report(4, ok, f"{recovered}/{cases} recovered exactly, {descended}/{cases} "
                  f"grid progressions, {elapsed:.1f}s")
    assert recovered == cases
    assert descended == cases
    assert elapsed < 30


def test_criterion_5_random_fractal_dimension():
    t0 = time.time()
    results = {}
    for beta in (0.25, 0.5):
        config = sk.RandomFractalConfig(beta, (64, 64, 64), 3, 50, SEED)
        stats = sk.dimension_experiment(config)
        results[beta] = stats
    elapsed = time.time() - t0
    ok = all(
        abs(results[b].mean_dim - (1 - b)) <= 0.1 and results[b].extinct < 0.1
        for b in results
    ) and elapsed < 120
    detail = ", ".join(
        f"beta={b}: mean {results[b].mean_dim:.3f} (target {1-b}), extinct "
        f"{results[b].extinct:.0%}" for b in results
    )
    report(5, ok, f"{detail}, {elapsed:.1f}s")
    for b, stats in results.items():
        assert abs(stats.mean_dim - (1 - b)) <= 0.1
        assert stats.extinct < 0.1
    assert elapsed < 120


def test_criterion_6_lemma_trend():
    t0 = time.time()
    fractions = []
    for n1 in (256, 1024, 4096):
        config = sk.RandomFractalConfig(0.5, (n1,), 1, 200, SEED)
        fractions.append(sk.lemma63_experiment(config, 1.0, 64).satisfied_fraction)
    elapsed = time.time() - t0
    ok = fractions == sorted(fractions) and fractions[-1] >= 0.9 and elapsed < 300
    report(6, ok, f"satisfied fractions {fractions} over N1 in (256, 1024, 4096), "
                  f"{elapsed:.1f}s")
    assert fractions == sorted(fractions)
    assert fractions[-1] >= 0.9
    assert elapsed < 300


def test_criterion_7_order_separation():
    t0 = time.time()
    config = sk.RandomFractalConfig(0.5, (64, 64, 64), 3, 50, SEED)
    median = sk.order_experiment(config).median_alpha
    plan = sk.ternary_plan(8, unit_eta=True)
    stages = [sk.n_approximation(sk.build_stage(plan, k), 3**k) for k in range(1, 9)]
    control = sk.equidist_order(stages, m_grid=range(2, 3**8)).alpha
    elapsed = time.time() - t0
    in_band = 0.35 <= median <= 0.65
    separated = control < median
    control_bound = control < 0.05
    ok = in_band and separated and control_bound and elapsed < 120
    report(7, ok, f"median alpha {median:.3f} (band [0.35, 0.65]: "
                  f"{'yes' if in_band else 'no'}), ternary control {control:.3f} "
                  f"(separated: {'yes' if separated else 'no'}; < 0.05: "
                  f"{'yes' if control_bound else 'no'}), {elapsed:.1f}s")
    assert in_band
    assert separated
    assert elapsed < 120
    # The peak |W| = 1/2 returns at every stage 3^k, so no constant C
    # carries a positive order along the stage sequence.
    assert control_bound


def test_criterion_8_round_trips(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    stage_ok = 0
    for _ in range(50):
        N = int(rng.integers(8, 128))
        size = int(rng.integers(1, N))
        cells = tuple(sorted(rng.choice(N, size=size, replace=False).tolist()))
        B = sk.integers_from_approximations([sk.NApproximation(N, cells)])
        back = sk.n_approximation([Fraction(b, N) for b in B.elements], N)
        stage_ok += back.cells == cells

    A = sk.IntegerSet.from_elements(rng.choice(4096, size=200, replace=False), 4096)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_integer_set(A, p1)
    save_integer_set(load_integer_set(p1), p2)
    file_ok = p1.read_bytes() == p2.read_bytes() and load_integer_set(p2) == A

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["corollary64", "--beta", "0.5", "--levels", "64,64", "--depth", "2",
            "--trials", "8", "--seed", str(SEED)]
    assert run_command(argv + ["--output", str(r1)]) == 0
    assert run_command(argv + ["--output", str(r2)]) == 0
    seed_ok = r1.read_bytes() == r2.read_bytes()

    elapsed = time.time() - t0
    ok = stage_ok == 50 and file_ok and seed_ok and elapsed < 10
    report(8, ok, f"{stage_ok}/50 stage round trips, files byte-exact: {file_ok}, "
                  f"seeded reports identical: {seed_ok}, {elapsed:.1f}s")
    assert stage_ok == 50
    assert file_ok
    assert seed_ok
    assert elapsed < 10
