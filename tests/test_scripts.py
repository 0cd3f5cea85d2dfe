"""Smoke runs of the experiment scripts at tiny sizes, each in its own
interpreter as a user would start it."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salemkit as sk
from salemkit.cantor import ternary_plan
from salemkit.cli import run_command
from salemkit.formats import fmt_float, save_integer_set, save_plan
from salemkit.generators import bernoulli_set

ROOT = Path(__file__).resolve().parent.parent


def start_script(name, *argv, output):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv, "--output", str(output)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *argv, output):
    proc = start_script(name, *argv, output=output)
    assert proc.returncode == 0, proc.stderr
    return json.loads(output.read_text())


@pytest.mark.parametrize("name, flag, value", [
    ("random_salem_sweep.py", "--levels", "8,x"),
    ("random_salem_sweep.py", "--betas", "0.25,y"),
    ("random_salem_sweep.py", "--betas", ","),
    ("random_salem_sweep.py", "--betas", ""),
    ("lemma_trend.py", "--n1s", "64.5"),
])
def test_malformed_list_flag_is_usage_error(tmp_path, name, flag, value):
    output = tmp_path / "out.json"
    proc = start_script(name, flag, value, "--seed", "1", output=output)
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr and "Traceback" not in proc.stderr
    assert not output.exists()


def test_lemma_trend(tmp_path):
    payload = run_script("lemma_trend.py", "--n1s", "16,32", "--u-max", "8", "--trials", "5",
                         "--seed", "1", output=tmp_path / "lemma.json")
    assert [row["N1"] for row in payload["rows"]] == [16, 32]


def test_random_salem_sweep_uses_order_experiment(tmp_path):
    payload = run_script("random_salem_sweep.py", "--betas", "0.25,0.9", "--levels", "16,16,16",
                         "--trials", "6", "--seed", "3", output=tmp_path / "sweep.json")
    assert [row["beta"] for row in payload["rows"]] == [0.25, 0.9]
    for row in payload["rows"]:
        config = sk.RandomFractalConfig(row["beta"], (16, 16, 16), 3, 6, 3)
        # the report prints floats with fmt_float's 12 significant digits
        assert row["median_alpha"] == float(fmt_float(sk.order_experiment(config).median_alpha))


def test_ternary_control(tmp_path):
    spectrum = tmp_path / "spectrum.csv"
    payload = run_script("ternary_control.py", "--depth", "3", "--plan-depth", "6",
                         "--spectrum", str(spectrum), output=tmp_path / "control.json")
    assert payload["stage_cells"] == 8
    lines = spectrum.read_text().splitlines()
    assert lines[0] == "u,re,im,abs"
    assert len(lines) == 1 + len(range(2, 3**3 + 1))


def test_size_ladder_rung_runs_the_command(tmp_path):
    # One run of the smallest measure-decay rung in a fresh process: its
    # report is the one the same command writes here.
    spec = importlib.util.spec_from_file_location("size_ladder", ROOT / "scripts" / "size_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    size, argv = ladder.rungs("measure-decay")[0]
    assert size == 3**7
    row = ladder.run_rung(str(ROOT / "src"), argv, 1)
    assert len(row["seconds"]) == 1 and row["median_s"] > 0 and row["maxrss_mb"] > 0
    assert len(row["import_s"]) == 1 and 0 < row["median_import_s"] == row["import_s"][0]
    save_plan(ternary_plan(14, unit_eta=True), tmp_path / "ternary14.txt")
    assert run_command([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    assert row["sha256"] == hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert [s for s, _ in ladder.rungs("corollary64")] == [64**3, 64**4]
    lemma63 = ladder.rungs("lemma63")
    assert [s for s, _ in lemma63] == [200, 800, 3200, 12800]
    for s, cmd in lemma63:
        assert cmd == ["lemma63", "--beta", "0.5", "--n1", "4096", "--u-max", "64", "--trials", str(s),
                       "--seed", "20261019", "--output", "{tmp}/report.json"]
    assert list(ladder.FAMILIES) == ["measure-decay", "corollary64", "lemma63", "witnesses"]


def test_size_ladder_writes_the_witness_input(tmp_path):
    # The smallest witnesses rung in a fresh process: the child writes the
    # Bernoulli set named in argv before the clock, and the CSV is the one
    # ap-find writes here from the same set.
    spec = importlib.util.spec_from_file_location("size_ladder", ROOT / "scripts" / "size_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    rungs = ladder.rungs("witnesses")
    assert [s for s, _ in rungs] == [4096, 16384, 65536]
    for N, cmd in rungs:
        assert cmd == ["ap-find", "--input", f"{{tmp}}/bernoulli_{N}.txt", "--n", "3", "--output", "{tmp}/witnesses.csv"]
    row = ladder.run_rung(str(ROOT / "src"), rungs[0][1], 1)
    save_integer_set(bernoulli_set(4096, 0.3, 20261019), tmp_path / "bernoulli_4096.txt")
    assert run_command([a.replace("{tmp}", str(tmp_path)) for a in rungs[0][1]]) == 0
    assert row["sha256"] == hashlib.sha256((tmp_path / "witnesses.csv").read_bytes()).hexdigest()
