import math
from fractions import Fraction

import numpy as np
import pytest

from salemkit.aps import check_thm32_hypotheses, find_ap_integers, find_ap_points
from salemkit.cantor import build_stage, make_plan, ternary_plan
from salemkit.cli import run_command
from salemkit.core_sets import IntegerSet
from salemkit.equidist import NApproximation, characterize_salem, n_approximation
from salemkit.generators import squares_below
from salemkit.measures import decay_check
from salemkit.randfrac import (
    RandomFractalConfig,
    dimension_experiment,
    generate_trial,
    lemma63_experiment,
    order_experiment,
)
from salemkit.formats import (
    FormatError,
    canonical_json,
    fmt_rational,
    load_approximation,
    load_integer_set,
    load_plan,
    load_points,
    save_approximation,
    save_integer_set,
    save_plan,
    save_points,
    spectrum_csv,
    stage_csv,
    witnesses_csv,
    write_report,
)


class TestIntegerSetFiles:
    def test_round_trip_byte_exact(self, tmp_path):
        A = IntegerSet((0, 3, 7, 100), 128)
        path = tmp_path / "set.txt"
        save_integer_set(A, path)
        assert load_integer_set(path) == A
        first = path.read_bytes()
        save_integer_set(load_integer_set(path), path)
        assert path.read_bytes() == first

    def test_decreasing_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1\n")
        with pytest.raises(FormatError):
            load_integer_set(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n3\n")
        with pytest.raises(FormatError):
            load_integer_set(path)

    def test_horizon_header_optional(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("1\n5\n")
        assert load_integer_set(path).horizon == 6


class TestPlanFiles:
    def test_round_trip(self, tmp_path):
        plan = ternary_plan(4)
        path = tmp_path / "plan.txt"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.levels == plan.levels
        save_plan(loaded, path)
        again = path.read_bytes()
        save_plan(load_plan(path), path)
        assert path.read_bytes() == again

    def test_c_bounds_round_trip(self, tmp_path):
        # c = 8 / 8**0.3 = 4.29 lies outside the default bounds (1/4, 4)
        plan = make_plan(IntegerSet(range(8), 8), [8, 8], 0.3, c_bounds=(1 / 8, 8))
        path = tmp_path / "plan.txt"
        save_plan(plan, path)
        assert path.read_text().splitlines()[1] == "c_bounds=1/8,8"
        assert load_plan(path) == plan
        first = path.read_bytes()
        save_plan(load_plan(path), path)
        assert path.read_bytes() == first
        save_plan(ternary_plan(2), path)
        assert "c_bounds" not in path.read_text()

    def test_bad_c_bounds_is_format_error(self, tmp_path):
        path = tmp_path / "plan.txt"
        for line in ("c_bounds=1/8", "c_bounds=4,1/4", "c_bounds=0,4", "c_bounds=a,4"):
            path.write_text(f"beta=0.5\n{line}\nN=3 digits=0,2 eta=3/4\n")
            with pytest.raises(FormatError):
                load_plan(path)

    def test_missing_beta_rejected(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("N=3 digits=0,2 eta=3/4\n")
        with pytest.raises(FormatError):
            load_plan(path)

    def test_bad_eta_is_format_error(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("beta=0.5\nN=3 digits=0,2 eta=5/4\n")
        with pytest.raises(FormatError):
            load_plan(path)

    def test_digits_beyond_size_is_format_error(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("beta=0.5\nN=3 digits=0,5 eta=3/4\n")
        with pytest.raises(FormatError):
            load_plan(path)


class TestApproximationFiles:
    def test_round_trip(self, tmp_path):
        approx = NApproximation(16, (0, 3, 9))
        path = tmp_path / "a.txt"
        save_approximation(approx, path)
        assert load_approximation(path) == approx

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("0\n3\n")
        with pytest.raises(FormatError):
            load_approximation(path)


class TestPointsFiles:
    def test_round_trip(self, tmp_path):
        pts = [Fraction(1, 3), Fraction(5, 16)]
        path = tmp_path / "pts.txt"
        save_points(pts, path)
        assert load_points(path) == pts


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        out = canonical_json({"b": 0.1 + 0.2, "a": 1})
        assert out == '{"a":1,"b":0.3}'

    def test_nested_and_fractions(self):
        out = canonical_json({"x": [Fraction(1, 3), 2.0, None, True]})
        assert out == '{"x":["1/3",2,null,true]}'

    def test_non_finite_becomes_null(self):
        assert canonical_json({"v": float("nan")}) == '{"v":null}'

    def test_twelve_significant_digits(self):
        assert canonical_json({"v": 1 / 3}) == '{"v":0.333333333333}'

    @pytest.mark.parametrize(
        "obj, text",
        [
            ([1, True], "[1,true]"),
            ([1, 2.5], "[1,2.5]"),
            ([1, Fraction(1, 2)], '[1,"1/2"]'),
            ([], "[]"),
            ((3, -1, 10**30), "[3,-1,1000000000000000000000000000000]"),
        ],
    )
    def test_sequences_render_element_by_element(self, obj, text):
        # plain-int lists take a single join; the bytes must not depend on it
        assert canonical_json(obj) == text
        assert canonical_json(obj) == "[" + ",".join(canonical_json(v) for v in obj) + "]"

    def test_numpy_integer_entry_still_refused(self):
        with pytest.raises(TypeError):
            canonical_json((0, np.int64(3)))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 3 * 4096 + 1])
    def test_int_lists_join_across_blocks(self, n):
        # plain-int lists join in blocks of 4096; the bytes are one join's
        xs = [(-1) ** i * (i * 2**57 + i) for i in range(n)]
        if n:
            xs[-1] = 2**63 + 5
        for obj in (xs, tuple(xs)):
            assert canonical_json(obj) == "[" + ",".join(map(str, xs)) + "]"

    def test_long_list_with_bool_or_numpy_entry_renders_per_item(self):
        xs = list(range(5000))
        assert canonical_json(xs[:4097] + [True] + xs[4097:]).split(",")[4097] == "true"
        with pytest.raises(TypeError):
            canonical_json(xs[:4097] + [np.int64(3)] + xs[4097:])


def written(report, tmp_path):
    path = tmp_path / "report.json"
    write_report(report, path)
    return path.read_text()


class TestReportBytes:
    """A report renders as the dict of its dataclass fields; each test
    spells that dict out by hand."""

    def test_order_stats(self, tmp_path):
        s = order_experiment(RandomFractalConfig(0.9, (4, 4), 2, 40, 5))
        want = {"target_order": s.target_order, "median_alpha": s.median_alpha,
                "alphas": list(s.alphas), "extinct": s.extinct, "trials": s.trials}
        assert written(s, tmp_path) == canonical_json(want) + "\n"

    def test_lemma_check_report(self, tmp_path):
        r = lemma63_experiment(RandomFractalConfig(0.5, (64,), 1, 5, 5), 1.0, 16)
        want = {"N1": r.N1, "epsilon1": r.epsilon1, "u_grid": r.u_grid,
                "satisfied_fraction": r.satisfied_fraction, "trials": r.trials}
        assert written(r, tmp_path) == canonical_json(want) + "\n"

    def test_hypothesis_report(self, tmp_path):
        r = check_thm32_hypotheses(squares_below(1024), 0.7, 1.0)
        assert r.bound_violations and r.failed
        want = {"alpha_hat": r.alpha_hat, "beta": r.beta, "constant": r.constant,
                "density_ok": r.density_ok, "exponent_ok": r.exponent_ok,
                "bound_violations": list(r.bound_violations), "ap_found": r.ap_found,
                "failed": list(r.failed)}
        assert written(r, tmp_path) == canonical_json(want) + "\n"

    def test_characterization_report(self, tmp_path):
        plan = ternary_plan(6)
        approxs = [n_approximation(build_stage(plan, k), 3**k) for k in range(1, 7)]
        r = characterize_salem(approxs, math.log(2) / math.log(3))
        est = r.order_estimate
        want = {
            "density_exponents": [
                {"N": s.N, "count": s.count, "c_value": s.c_value, "pointwise_exponent": s.pointwise_exponent}
                for s in r.density_exponents
            ],
            "order_estimate": {"alpha": est.alpha, "cap": est.cap,
                               "per_m_bounds": [[m, b] for m, b in est.per_m_bounds]},
            "verdict": r.verdict,
            "beta_hat": r.beta_hat,
            "c_in_bounds": r.c_in_bounds,
            "tolerance": r.tolerance,
        }
        assert written(r, tmp_path) == canonical_json(want) + "\n"

    def test_trial_dump(self, tmp_path):
        dump = tmp_path / "trial.json"
        assert run_command(["random-salem", "--beta", "0.5", "--levels", "8,8,8", "--depth", "3",
                            "--trials", "3", "--seed", "5", "--dump-trial", "2",
                            "--trial-output", str(dump), "--output", str(tmp_path / "s.json")]) == 0
        t = generate_trial(RandomFractalConfig(0.5, (8, 8, 8), 3, 3, 5), 2)
        want = {"trial_index": 2, "master_seed": 5, "beta": 0.5, "level_sizes": [8, 8, 8],
                "stages": [list(s) for s in t.stages], "white_counts": list(t.white_counts),
                "extinct": t.extinct}
        assert dump.read_text() == canonical_json(want) + "\n"

    def test_ap_find_json(self, tmp_path):
        A = squares_below(400)
        (tmp_path / "sq.txt").write_text("\n".join(map(str, A.elements)) + "\n")
        out = tmp_path / "w.json"
        assert run_command(["ap-find", "--input", str(tmp_path / "sq.txt"), "--n", "3",
                            "--format", "json", "--output", str(out)]) == 0
        rows = [{"start": w.start, "difference": w.difference, "length": w.length}
                for w in find_ap_integers(IntegerSet(A.elements, A.elements[-1] + 1), 3)]
        assert rows
        assert out.read_text() == canonical_json({"witnesses": rows}) + "\n"

    def test_dimension_stats(self, tmp_path):
        s = dimension_experiment(RandomFractalConfig(0.5, (8, 8, 8), 3, 4, 5))
        want = {"mean_dim": s.mean_dim, "std_dim": s.std_dim, "extinct": s.extinct,
                "trials": s.trials, "dims": list(s.dims)}
        assert written(s, tmp_path) == canonical_json(want) + "\n"

    def test_as_dict_takes_precedence(self, tmp_path):
        decay = decay_check(ternary_plan(4), list(range(2, 40)), 0.5)
        assert canonical_json({"d": decay}) == canonical_json({"d": decay.as_dict()})
        text = written(decay, tmp_path)
        assert text == canonical_json(decay.as_dict()) + "\n"
        assert '"pass":' in text and "spectrum" not in text


class TestCsv:
    def test_spectrum_header(self):
        from salemkit.core_sets import SpectrumSample

        text = spectrum_csv([SpectrumSample(2.0, 0.5 + 0j)])
        assert text.splitlines()[0] == "m,re,im,abs"

    def test_stage_columns(self):
        text = stage_csv(build_stage(ternary_plan(2), 1))
        lines = text.splitlines()
        assert lines[0] == "numerator,denominator,value"
        assert lines[1] == "0,1,0"
        assert lines[2].startswith("2,3,0.66666666")

    def test_rational_witnesses(self):
        points = [Fraction(p) for p in ("-1/3", "0", "1/3", "1/2", "1", "3/2", "2", "3", "5")]
        witnesses = find_ap_points(points, 3)
        want = "start,difference,length\n" + "".join(
            f"{fmt_rational(s)},{fmt_rational(d)},{n}\n" for s, d, n in witnesses)
        assert witnesses_csv(witnesses) == want
        # negative, integral and fractional values in both rational columns
        assert "-1/3,1/3,3\n" in want and "0,1,4\n" in want and "1,2,3\n" in want

    def test_rational_formatting(self):
        assert fmt_rational(Fraction(4, 8)) == "1/2"
        assert fmt_rational(Fraction(3)) == "3"
