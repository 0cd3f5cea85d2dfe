"""Smoke runs of the experiment scripts at tiny sizes, each in its own
interpreter as a user would start it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salemkit as sk
from salemkit.formats import fmt_float

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
