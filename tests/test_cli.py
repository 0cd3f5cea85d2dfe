import json

import pytest

from salemkit import cli
from salemkit.cli import run_command
from salemkit.core_sets import IntegerSet
from salemkit.formats import load_approximation, load_integer_set, load_plan, save_integer_set
from salemkit.generators import squares_below


def run(*argv):
    return run_command(list(argv))


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


class TestApFind:
    def test_squares_have_3ap(self, squares_file, tmp_path, capsys):
        out = tmp_path / "wit.csv"
        assert run("ap-find", "--input", str(squares_file), "--n", "3",
                   "--format", "csv", "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "start,difference,length"
        # 1, 25, 49 is a square progression: 25-1 = 49-25 = 24
        assert "1,24,3" in lines[1:]


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
