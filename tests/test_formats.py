from fractions import Fraction

import pytest

from salemkit.cantor import build_stage, make_plan, ternary_plan
from salemkit.core_sets import IntegerSet
from salemkit.equidist import NApproximation
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

    def test_rational_formatting(self):
        assert fmt_rational(Fraction(4, 8)) == "1/2"
        assert fmt_rational(Fraction(3)) == "3"
