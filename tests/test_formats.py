import math
import os
import stat
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemkit import formats
from salemkit.aps import check_thm32_hypotheses, find_ap_integers, find_ap_points
from salemkit.cantor import CantorStage, build_stage, make_plan, ternary_plan
from salemkit.cli import run_command
from salemkit.core_sets import IntegerSet, SpectrumSample
from salemkit.equidist import NApproximation, characterize_salem, n_approximation
from salemkit.generators import squares_below
from salemkit.measures import decay_check
from salemkit.randfrac import (
    RandomFractalConfig,
    dimension_experiment,
    lemma63_experiment,
    order_experiment,
)
from salemkit.formats import (
    FormatError,
    canonical_json,
    fmt_float,
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
from test_cantor import small_plans
from test_randfrac import reference_refine


def loop_stage_csv(stage):
    """Oracle: the stage CSV printed endpoint by endpoint in Python ints."""
    D = stage.denominator
    lines = ["numerator,denominator,value"]
    for n in stage.numerators:
        g = math.gcd(n, D)
        lines.append(f"{n // g},{D // g},{fmt_float(n / D)}")
    return "\n".join(lines) + "\n"


def line_loop_load_approximation(path):
    """Oracle: an approximation file read line by line."""
    N = None
    cells = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("N="):
            try:
                N = int(line.split("=", 1)[1])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad N header") from exc
            continue
        try:
            cells.append(int(line))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: not an integer") from exc
    if N is None:
        raise FormatError("missing N header")
    try:
        return NApproximation(N, tuple(cells))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def outcome(load, path):
    try:
        return load(path)
    except FormatError as exc:
        return f"FormatError: {exc}"


@st.composite
def approximation_texts(draw):
    """Approximation files: an N= header (or none), cells padded with
    whitespace, and maybe blank and "#" lines anywhere, a late N= line and
    one bad line."""
    pad = st.sampled_from(["", " ", "\t", "  ", "\u00a0", "\u3000", "\x0b", "\x0c"])
    N = draw(st.integers(1, 40))
    cells = sorted(draw(st.sets(st.integers(0, 45), max_size=12)))
    lines = [draw(pad) + str(c) + draw(pad) for c in cells]
    extras = draw(st.lists(st.sampled_from(["", "   ", "# note", "  #x", "N=%d" % (N + 1), "N=x", "3.5", "1 2", "abc",
                                            "+7", "0_1", "N=", "-1"]), max_size=3))
    for line in extras:
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = draw(st.sampled_from(["N=%d", "N= %d ", "N=%d\t", " N=%d", "# c\nN=%d", None]))
    if header is not None:
        lines.insert(0, header % N)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


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

    @settings(max_examples=200, deadline=None)
    @given(approximation_texts())
    @example("N=16\n 0 \n\t3\n9\u00a0\n")
    @example("N=16\n0\n\n3\n")
    @example("N=16\n0\n# c\n3\n")
    @example("N=16\n0\nN=20\n17\n")
    @example("N=16\n0\nx\n3\n")
    @example("N=16\n3\n0\n")
    @example("N=4\n0\n9\n")
    @example("N=x\n0\n")
    @example("123\n0\n")
    def test_one_pass_read_matches_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("approx") / "a.txt"
        path.write_text(text)
        assert outcome(load_approximation, path) == outcome(line_loop_load_approximation, path)


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

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 3 * 4096 + 1])
    def test_int64_arrays_render_as_their_int_lists(self, n):
        xs = [(-1) ** i * (i * 2**49 + i) for i in range(n)]
        if n:
            xs[-1] = 2**63 - 1
        assert canonical_json(np.array(xs, dtype=np.int64)) == canonical_json(tuple(xs))
        assert canonical_json({"s": (np.array(xs, dtype=np.int64),)}) == canonical_json({"s": [xs]})

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 1])
    def test_non_negative_int64_arrays_print_as_their_int_lists(self, n):
        # printed block by block by _decimal_rows: 0, every digit count and
        # the int64 maximum, across the blocks' edges
        xs = [i * 7**i % 2**63 for i in range(n)]
        xs[-1] = 2**63 - 1
        assert canonical_json(np.array(xs, dtype=np.int64)) == "[" + ",".join(map(str, xs)) + "]"

    @pytest.mark.parametrize("array", [np.zeros((2, 2), dtype=np.int64), np.zeros(3), np.zeros(3, dtype=np.int32)])
    def test_other_arrays_still_refused(self, array):
        with pytest.raises(TypeError):
            canonical_json(array)

    def test_long_list_with_bool_or_numpy_entry_renders_per_item(self):
        xs = list(range(5000))
        assert canonical_json(xs[:4097] + [True] + xs[4097:]).split(",")[4097] == "true"
        with pytest.raises(TypeError):
            canonical_json(xs[:4097] + [np.int64(3)] + xs[4097:])


def field_spectrum_csv(samples, freq_label):
    """Oracle: the spectrum CSV printed field by field, through fmt_float;
    a modulus too large for a double prints as inf."""
    lines = [f"{freq_label},re,im,abs"]
    for s in samples:
        f = int(s.frequency) if float(s.frequency).is_integer() else fmt_float(s.frequency)
        try:
            modulus = abs(s.value)
        except OverflowError:
            modulus = math.inf
        lines.append(f"{f},{fmt_float(s.value.real)},{fmt_float(s.value.imag)},{fmt_float(modulus)}")
    return "\n".join(lines) + "\n"


_INT64_MAX = 2**63 - 1


@st.composite
def decimal_columns(draw):
    """1-3 int64 columns of one common length: each column draws below its
    own power of ten, near powers of ten and near 0 and 2**63 - 1."""
    rows = draw(st.integers(1, 30))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        top = draw(st.integers(0, 19))
        edges = sorted({min(max(10**k + o, 0), _INT64_MAX) for k in range(top + 1) for o in (-1, 0, 1)} | {0, _INT64_MAX})
        value = st.one_of(st.integers(0, min(10**top, _INT64_MAX)), st.sampled_from(edges))
        columns.append(draw(st.lists(value, min_size=rows, max_size=rows)))
    return columns


class TestDecimalRows:
    @settings(max_examples=400, deadline=None)
    @given(decimal_columns())
    @example([[0]])
    @example([[0, 9, 10], [10, 0, 99], [_INT64_MAX, 1, 0]])
    def test_rows_print_as_str(self, columns):
        want = "".join(",".join(map(str, row)) + "\n" for row in zip(*columns))
        arrays = [np.array(c, dtype=np.int64) for c in columns]
        assert formats._decimal_rows(*arrays) == want
        assert formats._decimal_rows(*arrays, end=",") == want.replace("\n", ",")


def written(report, tmp_path):
    path = tmp_path / "report.json"
    write_report(report, path)
    return path.read_text()


class TestAtomicWrite:
    def test_reports_take_the_umask(self, tmp_path):
        # created 0o666 less the umask, as open(path, "w") creates a file
        old = os.umask(0o022)
        try:
            for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
                os.umask(umask)
                path = tmp_path / f"report_{umask:o}.json"
                write_report({"a": 1}, path)
                assert stat.S_IMODE(path.stat().st_mode) == mode
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report_22.json", "report_77.json"]


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
        stages = reference_refine(RandomFractalConfig(0.5, (8, 8, 8), 3, 3, 5), 2)
        want = {"trial_index": 2, "master_seed": 5, "beta": 0.5, "level_sizes": [8, 8, 8],
                "stages": [s.tolist() for s in stages], "white_counts": [s.size for s in stages],
                "extinct": stages[-1].size == 0}
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

    @pytest.mark.parametrize("freq_label", ["m", "u"])
    def test_spectrum_bytes_match_field_renderer(self, freq_label):
        parts = [0.0, -0.0, 0.5, -1.25, 1 / 3, 123456789.123456789, 1e-7, 1e20, 1e300, 5e-324, -2.2250738585072014e-308,
                 math.nan, math.inf, -math.inf]
        values = [complex(re, im) for re in parts for im in parts]
        samples = [SpectrumSample(f, v) for f in (2.0, 2.5, 1e20, 1e-7, 2**0.5, -0.0, 3, math.inf, math.nan) for v in values]
        assert spectrum_csv(samples, freq_label=freq_label) == field_spectrum_csv(samples, freq_label)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=20))
    @example([(0.0, 1.8941775056029057e300, 1.7976931348623157e308)])
    def test_spectrum_bytes_match_field_renderer_on_any_doubles(self, rows):
        samples = [SpectrumSample(f, complex(re, im)) for f, re, im in rows]
        assert spectrum_csv(samples) == field_spectrum_csv(samples, "m")

    def test_witness_blocks_print_as_rows(self):
        # One int64 block as the search yields it (start indices into the
        # values), and the same values past int64 in an object block.
        values = (0, 7, 10, 99, 1000, 12345)
        starts, diffs, lengths = np.array([0, 1, 5, 2]), np.array([10, 1, 9, 1000]), np.array([3, 12, 100, 4])
        rows = [(values[i], int(d), int(k)) for i, d, k in zip(starts, diffs, lengths)]
        header = "start,difference,length\n"
        want = header + "".join("%s,%s,%s\n" % w for w in rows)
        assert witnesses_csv([(starts, diffs, lengths)], values) == want
        assert witnesses_csv([(starts[:2], diffs[:2], lengths[:2]), (starts[2:], diffs[2:], lengths[2:])], values) == want
        big = tuple(2**63 + v for v in values)
        blocks = [(starts, diffs.astype(object), lengths)]
        assert witnesses_csv(blocks, big) == header + "".join("%s,%s,%s\n" % (2**63 + s, d, k) for s, d, k in rows)
        assert witnesses_csv([], values) == header

    def test_stage_columns(self):
        text = stage_csv(build_stage(ternary_plan(2), 1))
        lines = text.splitlines()
        assert lines[0] == "numerator,denominator,value"
        assert lines[1] == "0,1,0"
        assert lines[2].startswith("2,3,0.66666666")

    @given(small_plans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stage_bytes_match_endpoint_loop(self, plan, data):
        stage = build_stage(plan, data.draw(st.integers(0, plan.depth)))
        assert stage_csv(stage) == loop_stage_csv(stage)

    @given(st.sampled_from([3**33, 2**53 - 1, 2**53, 2**53 + 1, 3**34, 2**64 + 13]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stage_bytes_at_the_double_guard(self, D, data):
        # denominators below 2**53 print through float64 quotients, larger
        # ones through Python ints in object arrays; both print every n / D
        # as Fraction does
        ends = data.draw(st.sets(st.sampled_from([0, 1, 2**52, D - 2, D - 1])))
        numerators = sorted(ends | data.draw(st.sets(st.integers(0, D - 1), min_size=1, max_size=20)))
        stage = CantorStage(1, tuple(numerators), 1, D)
        text = stage_csv(stage)
        assert text == loop_stage_csv(stage)
        for row, n in zip(text.splitlines()[1:], numerators):
            p, q, value = row.split(",")
            assert Fraction(int(p), int(q)) == Fraction(n, D) and value == fmt_float(float(Fraction(n, D)))

    def test_stage_values_past_the_double_guard_round_once(self):
        # past 2**53 the quotient of the two rounded doubles can miss n / D
        # in the 12th digit: here it would print 0.723347347958
        D, n = 2**53 + 1, 6515333693441668
        assert float(n) / float(D) != n / D
        assert stage_csv(CantorStage(1, (0, n), 1, D)).splitlines()[2].endswith(",0.723347347957")

    def test_rational_witnesses(self):
        points = [Fraction(p) for p in ("-1/3", "0", "1/3", "1/2", "1", "3/2", "2", "3", "5")]
        witnesses = find_ap_points(points, 3)
        want = "start,difference,length\n" + "".join(
            f"{fmt_rational(s)},{fmt_rational(d)},{n}\n" for s, d, n in witnesses)
        # negative, integral and fractional values in both rational columns
        assert "-1/3,1/3,3\n" in want and "0,1,4\n" in want and "1,2,3\n" in want
        # the witnesses as one object block over the sorted points print
        # as the fmt_rational rows
        starts = np.array([points.index(s) for s, _, _ in witnesses])
        diffs = np.array([d for _, d, _ in witnesses], dtype=object)
        lengths = np.array([n for _, _, n in witnesses])
        assert witnesses_csv([(starts, diffs, lengths)], points) == want

    def test_rational_formatting(self):
        assert fmt_rational(Fraction(4, 8)) == "1/2"
        assert fmt_rational(Fraction(3)) == "3"
