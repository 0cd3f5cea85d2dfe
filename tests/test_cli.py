import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from salemkit import cli
from salemkit.cli import run_command
from salemkit.core_sets import IntegerSet
from salemkit.formats import canonical_json, load_approximation, load_integer_set, load_plan, save_integer_set
from salemkit.generators import squares_below
from test_aps import loop_runs
from test_core_sets import math_log_fit


def run(*argv):
    return run_command(list(argv))


ROOT = Path(__file__).resolve().parent.parent


def witness_rows(witnesses):
    """Oracle: the witness CSV, printed row by row."""
    return "start,difference,length\n" + "".join("%s,%s,%s\n" % tuple(w) for w in witnesses)


@pytest.fixture
def squares_file(tmp_path):
    path = tmp_path / "squares.txt"
    save_integer_set(squares_below(100), path)
    return path


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 2

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        code = run("random-salem", "--beta", "0.5", "--levels", "16,16,16",
                   "--depth", "3", "--trials", "2")
        assert code == 2

    def test_domain_error(self, tmp_path, capsys):
        code = run("weyl", "--points", "0,1/2", "--m", "0")
        assert code == 1

    def test_resolution_beyond_int64_is_domain_error(self, capsys):
        code = run("random-salem", "--beta", "0.75", "--levels", "65536,65536,65536,65536",
                   "--depth", "4", "--trials", "5", "--seed", "0")
        assert code == 1

    def test_resolution_one_is_domain_error(self, capsys):
        code = run("random-salem", "--beta", "0.5", "--levels", "1,1,1", "--depth", "3",
                   "--trials", "2", "--seed", "1")
        assert code == 1
        assert capsys.readouterr().err.startswith("salemkit:")

    def test_infinite_u_max_is_domain_error(self, squares_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100",
                   "--beta", "0.5", "--output", str(plan_path)) == 0
        assert run("measure-decay", "--plan", str(plan_path), "--u-max", "inf") == 1
        assert capsys.readouterr().err.startswith("salemkit:")

    def test_removed_measure_decay_flags_are_usage_errors(self, squares_file, tmp_path, capsys):
        # the measure is its plan: a shallower truncation is a plan with
        # fewer levels, and the phase threshold is measures.THETA
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100",
                   "--beta", "0.5", "--output", str(plan_path)) == 0
        out = tmp_path / "decay.json"
        assert run("measure-decay", "--plan", str(plan_path), "--theta", "1e-3", "--output", str(out)) == 2
        assert run("measure-decay", "--plan", str(plan_path), "--truncation-depth", "2",
                   "--output", str(out)) == 2
        assert not out.exists()

    def test_plan_takes_no_config_alias(self, squares_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100",
                   "--beta", "0.5", "--output", str(plan_path)) == 0
        out = tmp_path / "out.txt"
        assert run("construct", "--config", str(plan_path), "--depth", "1", "--output", str(out)) == 2
        assert run("measure-decay", "--config", str(plan_path), "--output", str(out)) == 2
        assert run("approximate", "--config", str(plan_path), "--N", "64", "--output", str(out)) == 2
        assert not out.exists()
        assert run("approximate", "--plan", str(plan_path), "--N", "64", "--output", str(out)) == 0

    def test_refused_random_salem_writes_no_trial_file(self, tmp_path, capsys):
        dump = tmp_path / "trial.json"
        out = tmp_path / "stats.json"
        code = run("random-salem", "--beta", "0.5", "--levels", "8,8", "--depth", "2", "--trials", "2",
                   "--seed", "1", "--dump-trial", "0", "--trial-output", str(dump), "--output", str(out))
        assert code == 1
        assert "need depth at least 3" in capsys.readouterr().err
        assert not dump.exists() and not out.exists()

    def test_embed_depth_zero_refused(self, tmp_path, capsys):
        # depth 0 used to read as "absent" and embed at full depth
        ap_path = tmp_path / "ap.txt"
        save_integer_set(IntegerSet((3, 7, 11), 12), ap_path)
        out = tmp_path / "pts.txt"
        assert run("ap-embed", "--input", str(ap_path), "--exponents", "4,7", "--depth", "0",
                   "--output", str(out)) == 1
        assert "depth must select a prefix" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_operand_is_usage_error(self, capsys):
        assert run("weyl", "--m", "1") == 2
        assert run("ap-descent", "--n", "3", "--k-max", "4") == 2

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--levels", ["random-salem", "--beta", "0.5", "--levels", "8,x", "--depth", "2",
                          "--trials", "2", "--seed", "1"]),
            ("--points", ["weyl", "--points", "1/0", "--m", "1"]),
            ("--freqs", ["dft", "--input", "sq.txt", "--freqs", ""]),
            ("--grid", ["density", "--input", "sq.txt", "--grid", ","]),
        ],
        ids=["levels", "points", "empty-freqs", "empty-grid"],
    )
    def test_malformed_flag_value_is_usage_error(self, flag, argv, capsys):
        # exit 3 is kept for files: a bad flag value is a usage error
        assert run(*argv) == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl", "--points", "0,1/2", "--points-file", "{points}", "--m", "1"],
            ["ap-descent", "--points", "0,1/2", "--points-file", "{points}", "--n", "3", "--k-max", "4"],
            ["approximate", "--plan", "{plan}", "--points", "0", "--N", "8"],
            ["approximate", "--plan", "{plan}", "--points-file", "{points}", "--N", "8"],
            ["approximate", "--points", "0", "--points-file", "{points}", "--N", "8"],
            ["dft", "--input", "{squares}", "--freqs", "1", "--all-freqs"],
        ],
        ids=["weyl", "ap-descent", "approximate-plan-points", "approximate-plan-file",
             "approximate-points-file", "dft"],
    )
    def test_conflicting_inputs_are_usage_errors(self, argv, squares_file, tmp_path, capsys):
        # each pair used to run on one input and silently drop the other
        paths = {"points": tmp_path / "points.txt", "plan": tmp_path / "plan.txt", "squares": squares_file}
        paths["points"].write_text("0\n1/2\n")
        assert run("plan", "--input", str(squares_file), "--horizons", "100", "--beta", "0.5",
                   "--output", str(paths["plan"])) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*[a.format(**paths) for a in argv], "--output", str(out)) == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_on_missing_input(self, capsys):
        assert run("density", "--input", "/nonexistent/set.txt") == 3

    def test_io_error_on_unwritable_output(self, squares_file, capsys):
        code = run("ap-find", "--input", str(squares_file), "--n", "3",
                   "--output", "/nonexistent/dir/out.csv")
        assert code == 3

    def test_strict_failure(self, tmp_path, capsys):
        A = IntegerSet((0, 1, 5), 6)
        path = tmp_path / "tiny.txt"
        save_integer_set(A, path)
        assert run("thm32-check", "--input", str(path), "--beta", "0.7") == 0
        assert run("thm32-check", "--input", str(path), "--beta", "0.7", "--strict") == 1


# The hand-written set of CI's past-int64 spectra, with horizon 2**64 + 13.
PAST_2P63 = (0, 3, 4294967297, 9223372036854775807, 9223372036854775808, 9223372036854775813, 18446744073709551617)


class TestPast2p64:
    """density, thm32-check and characterize fit checkpoints and sizes at
    and past 2**64, which np.log could not read as Python ints."""

    @pytest.fixture
    def past_2p63(self, tmp_path):
        path = tmp_path / "past_2p63_set.txt"
        save_integer_set(IntegerSet(PAST_2P63, 2**64 + 13), path)
        return path

    @staticmethod
    def fit(grid):
        # oracle: counts by brute force, then the math.log fit, clamped
        samples = [(n, sum(1 for a in PAST_2P63 if a < n)) for n in grid]
        slope, resid = math_log_fit([(n, c) for n, c in samples if c > 0])
        return samples, min(1.0, max(0.0, slope)), resid

    def test_density(self, past_2p63, tmp_path):
        out = tmp_path / "density.json"
        assert run("density", "--input", str(past_2p63), "--output", str(out)) == 0
        report = json.loads(out.read_text())
        samples, exponent, resid = self.fit([2**j for j in range(2, 65)] + [2**64 + 13])
        assert [tuple(s) for s in report["samples"]] == samples
        assert report["exponent"] == pytest.approx(exponent, rel=1e-10)
        assert report["residual"] == pytest.approx(resid, rel=1e-9)

    def test_thm32_check(self, past_2p63, tmp_path):
        out = tmp_path / "thm32.json"
        assert run("thm32-check", "--input", str(past_2p63), "--beta", "1", "--C", "1", "--output", str(out)) == 0
        report = json.loads(out.read_text())
        _, exponent, _ = self.fit([2**j for j in range(1, 64)] + [2**64 + 13])
        assert report["alpha_hat"] == pytest.approx(exponent, rel=1e-10)
        assert report["failed"] == ["density", "exponent-relation"]

    def test_characterize(self, tmp_path):
        paths = [str(tmp_path / f"approx{e}.txt") for e in (60, 66, 70)]
        for e, path in zip((60, 66, 70), paths):
            assert run("approximate", "--points", "1/3,2/3,5/7", "--N", str(2**e), "--output", path) == 0
        out = tmp_path / "characterize.json"
        assert run("characterize", "--inputs", *paths, "--beta", "0.5", "--output", str(out)) == 0
        report = json.loads(out.read_text())
        assert [s["N"] for s in report["density_exponents"]] == [2**60, 2**66, 2**70]
        assert [s["count"] for s in report["density_exponents"]] == [3, 3, 3]
        assert report["beta_hat"] == pytest.approx(0.0, abs=1e-12)

    def test_past_the_double_range_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        save_integer_set(IntegerSet((0, 1, 5), 2**1100), path)
        assert run("density", "--input", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("salemkit:") and "double range" in err and "Traceback" not in err

    def test_dft_past_the_double_range_exits_1(self, tmp_path, capsys):
        # the normalization needs float(N), which 2**1100 has not
        path = tmp_path / "huge.txt"
        save_integer_set(IntegerSet((0, 1, 5), 2**1100), path)
        out = tmp_path / "dft.csv"
        assert run("dft", "--input", str(path), "--freqs", "1,2", "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("salemkit:") and "double range" in err and "Traceback" not in err
        assert not out.exists()

    def test_characterize_past_the_double_range_exits_1(self, tmp_path, capsys):
        # the approximations are written, but their N**beta has no double
        paths = [str(tmp_path / f"approx{e}.txt") for e in (1030, 1040, 1050)]
        for e, path in zip((1030, 1040, 1050), paths):
            assert run("approximate", "--points", "1/3,2/3,5/7", "--N", str(2**e), "--output", path) == 0
        capsys.readouterr()
        out = tmp_path / "characterize.json"
        assert run("characterize", "--inputs", *paths, "--beta", "0.5", "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("salemkit:") and "double range" in err and "Traceback" not in err
        assert not out.exists()

    def test_dft_all_freqs_past_maxsize_exits_1(self, tmp_path, capsys):
        # range(2**70) has no len, so its frequencies cannot be listed
        path = tmp_path / "huge.txt"
        save_integer_set(IntegerSet((0, 1, 5), 2**70), path)
        out = tmp_path / "dft.csv"
        assert run("dft", "--input", str(path), "--all-freqs", "--output", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("salemkit:") and "--all-freqs" in err and "Traceback" not in err
        assert not out.exists()


class TestEncoding:
    """Input files are UTF-8 whatever the locale, and bytes that are not
    UTF-8 are malformed input."""

    @pytest.mark.parametrize("argv", [
        ("density", "--input", "{bad}"),
        ("construct", "--plan", "{bad}", "--depth", "1"),
        ("characterize", "--inputs", "{bad}", "{bad}", "{bad}", "--beta", "0.5"),
        ("weyl", "--points-file", "{bad}", "--m", "2"),
    ], ids=lambda argv: argv[0])
    def test_not_utf8_exits_3(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1")
        out = tmp_path / "out"
        assert run(*[a.format(bad=bad) for a in argv], "--output", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("salemkit:") and "UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    def test_commented_files_load_under_the_c_locale(self, squares_file, tmp_path):
        # Under LC_ALL=C, with locale coercion and UTF-8 mode off, the
        # locale's encoding is ASCII; the UTF-8 comment lines must still load.
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100", "--beta", "0.5",
                   "--output", str(plan_path)) == 0
        for path in (squares_file, plan_path):
            head, rest = path.read_text().split("\n", 1)
            path.write_text(f"{head}\n# carr\u00e9s \u2264 100, \u03b2 = 1/2\n{rest}", encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = ("import locale, sys; from salemkit.formats import canonical_json, load_integer_set, load_plan;"
                "print(locale.getpreferredencoding(False));"
                "print(canonical_json(load_integer_set(sys.argv[1])));"
                "print(canonical_json(load_plan(sys.argv[2])))")
        proc = subprocess.run([sys.executable, "-c", code, str(squares_file), str(plan_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        encoding, A, plan = proc.stdout.splitlines()
        assert encoding.lower() in {"ascii", "ansi_x3.4-1968"}
        assert A == canonical_json(load_integer_set(squares_file)) == canonical_json(squares_below(100))
        assert plan == canonical_json(load_plan(plan_path))


class TestApFind:
    def test_squares_have_3ap(self, squares_file, tmp_path, capsys):
        out = tmp_path / "wit.csv"
        assert run("ap-find", "--input", str(squares_file), "--n", "3",
                   "--format", "csv", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "start,difference,length"
        # 1, 25, 49 is a square progression: 25-1 = 49-25 = 24
        assert "1,24,3" in lines[1:]

    @pytest.mark.parametrize("offset", [0, 2**63])
    @pytest.mark.parametrize("first_only", [False, True])
    def test_csv_bytes_are_the_witness_rows(self, tmp_path, capsys, offset, first_only):
        # 600 of 2048 integers hold about 90,000 pairs, several search
        # blocks; the offset takes every value past int64.  The CLI's bytes
        # are checked against the pair-loop oracle, printed row by row.
        rng = np.random.default_rng(3)
        A = IntegerSet.from_elements([offset + int(v) for v in rng.choice(2048, 600, replace=False)])
        path, out = tmp_path / "set.txt", tmp_path / "w.csv"
        save_integer_set(A, path)
        for n in (3, 4, 5):
            flags = ["--first-only"] if first_only else []
            assert run("ap-find", "--input", str(path), "--n", str(n), *flags, "--output", str(out)) == 0
            assert out.read_text() == witness_rows(loop_runs(A.elements, n, first_only))

    @pytest.mark.parametrize("offset", [0, 2**63])
    def test_csv_without_progressions_is_the_header(self, tmp_path, capsys, offset):
        # Integers whose base-3 digits are 0 or 1 hold no 3-term progression.
        A = IntegerSet.from_elements([offset + int(format(i, "b"), 3) for i in range(256)])
        path, out = tmp_path / "set.txt", tmp_path / "w.csv"
        save_integer_set(A, path)
        assert loop_runs(A.elements, 3, False) == []
        assert run("ap-find", "--input", str(path), "--n", "3", "--output", str(out)) == 0
        assert out.read_text() == witness_rows([]) == "start,difference,length\n"


class TestRoundTrips:
    def test_set_write_read_byte_exact(self, squares_file, tmp_path):
        A = load_integer_set(squares_file)
        copy = tmp_path / "copy.txt"
        save_integer_set(A, copy)
        assert copy.read_bytes() == squares_file.read_bytes()

    def test_plan_construct_approximate_extract(self, squares_file, tmp_path):
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100",
                   "--beta", "0.5", "--output", str(plan_path)) == 0
        approx_path = tmp_path / "a1.txt"
        assert run("approximate", "--plan", str(plan_path), "--depth", "1",
                   "--N", "100", "--output", str(approx_path)) == 0
        approx = load_approximation(approx_path)
        assert approx.N == 100
        assert approx.cells == squares_below(100).elements
        out_set = tmp_path / "extracted.txt"
        assert run("extract-integers", "--inputs", str(approx_path),
                   "--output", str(out_set)) == 0
        assert load_integer_set(out_set).elements == approx.cells

    def test_plan_unit_eta(self, squares_file, tmp_path):
        plan_path = tmp_path / "plan.txt"
        assert run("plan", "--input", str(squares_file), "--horizons", "100,100,100",
                   "--beta", "0.5", "--unit-eta", "--output", str(plan_path)) == 0
        levels = plan_path.read_text().splitlines()[1:]
        assert len(levels) == 3 and all(line.endswith(" eta=1") for line in levels)
        assert [level.eta for level in load_plan(plan_path).levels] == [1, 1, 1]


class TestPipelines:
    def test_dft_weyl_construct(self, squares_file, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run("dft", "--input", str(squares_file), "--freqs", "0,1,2",
                   "--output", str(out)) == 0
        assert out.read_text().splitlines()[0] == "m,re,im,abs"
        full = tmp_path / "full.csv"
        assert run("dft", "--input", str(squares_file), "--all-freqs",
                   "--output", str(full)) == 0
        rows = full.read_text().splitlines()[1:]
        assert len(rows) == 100
        # Parseval from the exported magnitudes: sum |value|^2 = |A|/N
        total = sum(float(r.split(",")[3]) ** 2 for r in rows)
        assert abs(total - 10 / 100) < 1e-9
        assert run("weyl", "--points", "0,1/4,1/2,3/4", "--m", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["abs"] < 1e-12
        plan_path = tmp_path / "plan.txt"
        run("plan", "--input", str(squares_file), "--horizons", "100,100",
            "--beta", "0.5", "--output", str(plan_path))
        stage_path = tmp_path / "stage.csv"
        assert run("construct", "--plan", str(plan_path), "--depth", "1",
                   "--output", str(stage_path)) == 0
        lines = stage_path.read_text().splitlines()
        assert lines[0] == "numerator,denominator,value"
        assert len(lines) == 11

    def test_embed_then_descend(self, tmp_path, capsys):
        ap_path = tmp_path / "ap.txt"
        from salemkit.formats import save_integer_set as save
        save(IntegerSet((3, 7, 11), 12), ap_path)
        pts_path = tmp_path / "pts.txt"
        assert run("ap-embed", "--input", str(ap_path), "--exponents", "4,7",
                   "--output", str(pts_path)) == 0
        assert run("ap-descent", "--points-file", str(pts_path), "--n", "3",
                   "--k-max", "10") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] and payload["stage"] == 10


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["random-salem", "--beta", "0.5", "--levels", "32,32,32",
                "--depth", "3", "--trials", "5", "--seed", "7"]
        assert run(*argv, "--output", str(a)) == 0
        assert run(*argv, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert set(payload) >= {"mean_dim", "std_dim", "extinct", "trials"}

    def test_trial_dump_and_spectrum(self, tmp_path, capsys):
        dump = tmp_path / "trial.json"
        assert run("random-salem", "--beta", "0.5", "--levels", "16,16,16", "--depth", "3",
                   "--trials", "3", "--seed", "5", "--dump-trial", "1",
                   "--trial-output", str(dump), "--output", str(tmp_path / "s.json")) == 0
        payload = json.loads(dump.read_text())
        assert payload["trial_index"] == 1
        assert len(payload["stages"]) == len(payload["white_counts"])
        spec = tmp_path / "mu1.csv"
        assert run("lemma63", "--beta", "0.5", "--n1", "64", "--trials", "2",
                   "--u-max", "16", "--seed", "5", "--spectrum", str(spec),
                   "--output", str(tmp_path / "l.json")) == 0
        assert spec.read_text().splitlines()[0] == "u,re,im,abs"

    def test_lemma63_and_corollary64_reports(self, tmp_path, capsys):
        out = tmp_path / "l.json"
        assert run("lemma63", "--beta", "0.5", "--n1", "256", "--trials", "20",
                   "--u-max", "32", "--seed", "11", "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["satisfied_fraction"] <= 1.0
        out2 = tmp_path / "c.json"
        assert run("corollary64", "--beta", "0.5", "--levels", "64,64",
                   "--depth", "2", "--trials", "5", "--seed", "11",
                   "--output", str(out2)) == 0
        payload = json.loads(out2.read_text())
        assert "median_alpha" in payload

    def test_reused_parser_matches_fresh_parsers(self, squares_file, tmp_path, capsys):
        # one parser serves every call in a process: a run of calls, a parse
        # error among them, must exit and write as if each built its own
        calls = [
            ["density", "--input", str(squares_file), "--output", "{out}/density.json"],
            ["dft", "--input", str(squares_file), "--freqs", "1,2,3", "--output", "{out}/dft.csv"],
            ["weyl", "--points", "0,1/3,1/2", "--m", "3"],
            ["dft", "--input", str(squares_file), "--freqs", "1", "--bogus"],
            ["lemma63", "--beta", "0.5", "--n1", "64", "--trials", "3", "--u-max", "8", "--seed", "2",
             "--spectrum", "{out}/mu1.csv", "--output", "{out}/lemma.json"],
        ]

        def session(out, fresh):
            out.mkdir()
            seen = []
            for argv in calls:
                if fresh:
                    cli._parser.cache_clear()
                code = run_command([a.format(out=out) for a in argv])
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen, {f.name: f.read_bytes() for f in out.iterdir()}

        reused = session(tmp_path / "reused", fresh=False)
        assert [code for code, _, _ in reused[0]] == [0, 0, 0, 2, 0]
        assert "unrecognized arguments: --bogus" in reused[0][3][2]
        assert reused == session(tmp_path / "fresh", fresh=True)

    def test_measure_decay_report_fields(self, squares_file, tmp_path):
        plan_path = tmp_path / "plan.txt"
        run("plan", "--input", str(squares_file), "--horizons", "100,100,100",
            "--beta", "0.5", "--output", str(plan_path))
        out = tmp_path / "decay.json"
        assert run("measure-decay", "--plan", str(plan_path), "--u-max", "512",
                   "--output", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) >= {"alpha_hat", "beta_target", "pass", "truncation_depth_used"}


class TestHelp:
    def test_every_subcommand_has_help(self, capsys):
        assert run("--help") == 0
        text = capsys.readouterr().out
        for name in ("density", "dft", "weyl", "plan", "construct", "measure-decay",
                     "approximate", "characterize", "extract-integers", "ap-find",
                     "ap-embed", "ap-descent", "thm32-check", "random-salem",
                     "lemma63", "corollary64"):
            assert name in text
        for name in ("ap-descent", "measure-decay", "corollary64"):
            assert run(name, "--help") == 0
