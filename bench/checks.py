"""Output checks for the benchmark.

Two kinds, both applied to the files a pass writes:

* byte checks: the sha256 of every output file against the golden
  manifest (``golden.json``) when it records the seed, and otherwise
  against the run's first pass;
* oracle checks on the first pass: each output is recomputed or
  cross-checked by a path independent of the program (an FFT of the
  indicator for spectra, an integer convolution for 3-term progression
  counts, exact rational arithmetic for the embedding), so seeds that the
  manifest does not record are still checked for correctness.

Every check returns ``{file name: reason}`` for the files that failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Absolute tolerance for floats printed at 12 significant digits against
# an oracle computed in doubles by another summation order.
TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_manifest(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded hashes for (workload, seed), if the manifest has them."""
    if not GOLDEN.exists():
        return None
    recorded = json.loads(GOLDEN.read_text()).get(workload, {})
    return recorded.get("any" if workload in workloads.SEED_INDEPENDENT else str(seed))


def compare_hashes(out: Path, names, expected: dict[str, str]) -> dict[str, str]:
    bad = {}
    for name in names:
        path = out / name
        if not path.exists():
            bad[name] = "missing"
        elif sha256(path) != expected.get(name):
            bad[name] = "sha256 differs from the reference"
    return bad


def _load_set(path: Path) -> tuple[list[int], int]:
    lines = path.read_text().split("\n")
    horizon = int(lines[0].split("=", 1)[1])
    return [int(x) for x in lines[1:] if x], horizon


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _three_ap_count(elements: list[int], horizon: int) -> int:
    """#{(a, d): d >= 1, a, a+d, a+2d in A} by exact integer convolution."""
    ind = np.zeros(horizon, dtype=np.int64)
    ind[elements] = 1
    pair_sums = np.convolve(ind, ind)  # pair_sums[s] = #{(x, z): x + z = s}
    midpoints = pair_sums[2 * np.asarray(elements, dtype=np.int64)]
    return int((midpoints.sum() - len(elements)) // 2)


def _spectrum_oracle(elements: list[int], horizon: int) -> np.ndarray:
    ind = np.zeros(horizon)
    ind[elements] = 1.0
    return np.fft.fft(ind) / horizon


def _check_dft(path: Path, elements: list[int], horizon: int) -> str | None:
    rows = _csv_rows(path)
    if [int(r["m"]) for r in rows] != list(range(horizon)):
        return "frequency column is not 0..N-1"
    ref = _spectrum_oracle(elements, horizon)
    for r in rows:
        v = ref[int(r["m"])]
        if not (_close(float(r["re"]), v.real) and _close(float(r["im"]), v.imag) and _close(float(r["abs"]), abs(v))):
            return f"value at m={r['m']} differs from the FFT oracle"
    return None


def _check_witnesses(path: Path, elements: list[int], horizon: int) -> str | None:
    members = set(elements)
    rows = [(int(r["start"]), int(r["difference"]), int(r["length"])) for r in _csv_rows(path)]
    if rows != sorted(set(rows)):
        return "witnesses are not sorted and distinct"
    for start, d, length in rows:
        terms = [start + j * d for j in range(length)]
        if d < 1 or length < 3 or not members.issuperset(terms):
            return f"witness {start},{d},{length} is not a progression in the set"
        if start - d in members or start + length * d in members:
            return f"witness {start},{d},{length} is not a maximal run"
    if sum(length - 2 for _, _, length in rows) != _three_ap_count(elements, horizon):
        return "3-term progressions covered differ from the convolution count"
    return None


def _check_integer_side(seed: int, corpus: Path, out: Path) -> dict[str, str]:
    bad: dict[str, str] = {}
    power_law, n_pl = _load_set(corpus / "power_law.txt")
    bernoulli, n_b = _load_set(corpus / "bernoulli.txt")
    dense, n_d = _load_set(corpus / "dense.txt")

    density = json.loads((out / "density.json").read_text())
    grid = [2**j for j in range(2, n_pl.bit_length())] + [n_pl]
    grid = sorted(set(grid))
    counts = [sum(1 for e in power_law if e < n) for n in grid]
    fit = [(n, c) for n, c in zip(grid, counts) if c > 0]
    slope = float(np.polyfit(np.log([n for n, _ in fit]), np.log([c for _, c in fit]), 1)[0])
    if density["samples"] != [[n, c] for n, c in zip(grid, counts)] or not _close(density["exponent"], min(1.0, max(0.0, slope))):
        bad["density.json"] = "samples or exponent differ from a direct count and fit"

    for name, elements, horizon in (("power_law", power_law, n_pl), ("bernoulli", bernoulli, n_b)):
        reason = _check_dft(out / f"dft_{name}.csv", elements, horizon)
        if reason:
            bad[f"dft_{name}.csv"] = reason
    reason = _check_witnesses(out / "ap_bernoulli.csv", bernoulli, n_b)
    if reason:
        bad["ap_bernoulli.csv"] = reason

    thm = json.loads((out / "thm32.json").read_text())
    spectrum = _spectrum_oracle(dense, n_d)
    for k in thm["bound_violations"]:
        if not abs(spectrum[k]) > 4 * (k * n_d) ** (-0.35):
            bad["thm32.json"] = f"reported violation at k={k} does not violate the bound"
    expected_failed = [name for name, ok in (("density", thm["density_ok"]), ("exponent-relation", thm["exponent_ok"]),
                                              ("decay-bound", not thm["bound_violations"])) if not ok]
    if thm["ap_found"] != (_three_ap_count(dense, n_d) > 0) or thm["failed"] != expected_failed:
        bad["thm32.json"] = "ap_found or failed list inconsistent with an independent count"

    planted = workloads.planted_progression(seed)
    e0, e1 = workloads.EMBED_EXPONENTS
    slope_q = Fraction(1, 2**e0) + Fraction(1, 2**e1)
    points = [Fraction(line) for line in (out / "points.txt").read_text().split()]
    if points != [a * slope_q for a in planted]:
        bad["points.txt"] = "embedded points differ from a * (2^-e0 + 2^-e1)"
    descent = json.loads((out / "descent.json").read_text())
    scale = 2 ** (e1 - e0) + 1
    idx = descent["indices"]
    if not (descent["found"] and descent["stage"] == e1 and len(idx) == workloads.PLANTED_TERMS
            and all(i % scale == 0 and i // scale in set(planted) for i in idx)
            and len({b - a for a, b in zip(idx, idx[1:])}) == 1 and idx[1] > idx[0]):
        bad["descent.json"] = f"no {workloads.PLANTED_TERMS}-term progression of planted indices at stage {e1}"
    weyl = json.loads((out / "weyl.json").read_text())
    den = 2**e1
    residues = np.asarray([a * scale * workloads.WEYL_M % den for a in planted], dtype=np.int64)
    w = np.exp(-2j * np.pi * residues / den).mean()
    if not (weyl["m"] == workloads.WEYL_M and _close(weyl["re"], w.real) and _close(weyl["im"], w.imag)):
        bad["weyl.json"] = "Weyl sum differs from the integer-residue oracle"
    return bad


def _check_random_fractal(seed: int, corpus: Path, out: Path) -> dict[str, str]:
    bad: dict[str, str] = {}
    trial = json.loads((out / "trial0.json").read_text())
    stages, sizes = trial["stages"], trial["level_sizes"]
    ok = (trial["trial_index"] == 0 and trial["master_seed"] == workloads.subseed(seed, "random-salem")
          and sizes == [64] * 4 and trial["white_counts"] == [len(s) for s in stages])
    parents = {0}
    for size, stage in zip(sizes, stages):
        ok = ok and stage == sorted(set(stage)) and all(c // size in parents for c in stage)
        parents = set(stage)
    ok = ok and trial["extinct"] == (len(stages) < 4 or not stages[-1])
    if not ok:
        bad["trial0.json"] = "stages are not nested Bernoulli refinements of [0, 1)"

    rs = json.loads((out / "random_salem.json").read_text())
    dims = rs["dims"]
    ok = rs["trials"] == 20 and _close(len(dims), 20 * (1 - rs["extinct"])) and all(0 < d <= 1 for d in dims)
    ok = ok and _close(rs["mean_dim"], statistics.fmean(dims)) and _close(rs["std_dim"], statistics.pstdev(dims))
    if ok and not trial["extinct"]:
        ok = _close(dims[0], math.log(trial["white_counts"][-1]) / math.log(64**4))
    if not ok:
        bad["random_salem.json"] = "dimension statistics inconsistent with their dims or with the dumped trial"

    for beta in ("0.25", "0.5"):
        c64 = json.loads((out / f"corollary64_{beta}.json").read_text())
        alphas = c64["alphas"]
        if not (c64["trials"] == 50 and c64["extinct"] + len(alphas) == 50 and all(0 <= a <= 1 for a in alphas)
                and _close(c64["target_order"], 1 - float(beta)) and _close(c64["median_alpha"], statistics.median(alphas))):
            bad[f"corollary64_{beta}.json"] = "order statistics inconsistent"
    for n1 in (256, 1024, 4096):
        rep = json.loads((out / f"lemma63_{n1}.json").read_text())
        if not (rep["N1"] == n1 and rep["trials"] == 200 and _close(rep["satisfied_fraction"] * 200, round(rep["satisfied_fraction"] * 200))):
            bad[f"lemma63_{n1}.json"] = "report fields inconsistent"
        rows = _csv_rows(out / f"lemma63_{n1}_spectrum.csv")
        if [int(r["u"]) for r in rows] != list(range(1, 65)) or not all(
            _close(float(r["abs"]), math.hypot(float(r["re"]), float(r["im"]))) for r in rows
        ):
            bad[f"lemma63_{n1}_spectrum.csv"] = "spectrum rows malformed"
    return bad


def oracle_check(workload: str, seed: int, corpus: Path, out: Path) -> dict[str, str]:
    """Independent checks of one pass's outputs.  ``cantor_measure`` is
    seed-independent and always checked byte for byte against the manifest."""
    check = {"integer_side": _check_integer_side, "random_fractal": _check_random_fractal}.get(workload)
    if check is None:
        return {}
    try:
        return check(seed, corpus, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return {"*": f"unreadable output: {exc!r}"}
