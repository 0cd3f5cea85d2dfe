"""The package namespace: which names ``import salemkit`` offers, and which
layer modules it loads to offer them."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salemkit as sk

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("aps", "cantor", "core_sets", "equidist", "measures", "randfrac")
PUBLIC = [
    "APWitness", "CantorStage", "CharacterizationReport", "DecayReport", "DensityEstimate", "DimensionStats",
    "GridAP", "HypothesisReport", "IntegerSet", "LemmaCheckReport", "Level", "LevelPlan", "NApproximation",
    "OrderEstimate", "OrderStats", "RandomFractalConfig", "SeparationError", "SpectrumSample", "THETA",
    "ZERO_FLOOR", "aps", "box_dimension", "build_stage", "cantor", "characterize_salem",
    "check_thm32_hypotheses", "core_sets", "decay_check", "decay_exponent_fit", "default_eta", "dft_char",
    "dimension_experiment", "dyadic_embed", "equidist", "equidist_order", "find_ap_integers", "find_ap_points",
    "fractional_density", "geometric_grid", "grid_ap_descent", "integers_from_approximations",
    "lemma63_experiment", "make_plan", "measures", "mu1_hat", "mu_hat", "n_approximation", "order_experiment",
    "randfrac", "ternary_plan", "weyl_sum",
]

# Run in a fresh interpreter: the salemkit modules loaded after
# ``import salemkit``, then after the benchmark set-up's imports.
LOADED = r"""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("salemkit"))
import salemkit
after_package = loaded()
from salemkit import cantor, formats, generators
print(json.dumps([after_package, loaded()]))
"""


def test_import_loads_only_the_layers_used():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_package, after_setup = json.loads(proc.stdout)
    for name in ("aps", "measures", "randfrac", "cli"):
        assert f"salemkit.{name}" not in after_package
    for name in ("aps", "measures", "randfrac"):
        assert f"salemkit.{name}" not in after_setup
    assert {"salemkit.cantor", "salemkit.formats", "salemkit.generators"} <= set(after_setup)


def test_public_names():
    assert len(PUBLIC) == 51
    assert sk.__all__ == PUBLIC


def test_each_name_is_its_layer_object():
    layers = [importlib.import_module(f"salemkit.{name}") for name in SUBMODULES]
    for name in PUBLIC:
        value = getattr(sk, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"salemkit.{name}"]
            continue
        # Layers import each other's names by value, so every holder has the same object.
        holders = [vars(layer)[name] for layer in layers if name in vars(layer)]
        assert holders and all(held is value for held in holders), name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from salemkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)
    assert set(PUBLIC) <= set(dir(sk))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'salemkit' has no attribute 'no_such_name'"):
        sk.no_such_name


def test_name_follows_its_rebound_layer_attribute(monkeypatch):
    original = sk.dft_char

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(sk.core_sets, "dft_char", replacement)
    assert sk.dft_char is replacement
    monkeypatch.undo()
    assert sk.dft_char is original
    assert "dft_char" not in vars(sk)
