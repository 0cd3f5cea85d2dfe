"""Benchmark workloads: the input corpus each one reads and the fixed
pipeline of CLI steps it runs.

The seed is the only input knob.  It derives the generated integer sets
and every ``--seed`` flag; the program under test sees only the files
written here and the flags of each step.  ``cantor_measure`` runs the
paper's fixed constructions (squares, middle thirds), so its inputs and
outputs do not depend on the seed.

Run as a script to time one set-up the way a user pays for it, from a
fresh interpreter: import ``salemkit``, then generate and write the
corpus.  It prints the elapsed seconds.

    python3 bench/workloads.py --workload integer_side --seed 1 --out DIR
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("cantor_measure", "random_fractal", "integer_side")
SEED_INDEPENDENT = ("cantor_measure",)

SUBCOMMANDS = (
    "density", "dft", "weyl", "plan", "construct", "measure-decay",
    "approximate", "characterize", "extract-integers", "ap-find", "ap-embed",
    "ap-descent", "thm32-check", "random-salem", "lemma63", "corollary64",
)

# Flags whose value names a file the step writes.
OUTPUT_FLAGS = ("--output", "--spectrum", "--trial-output")

# Planted progression for ap-embed / ap-descent / weyl: 40 terms plus 40
# noise points below 2**EMBED_EXPONENTS[0].  At stage EMBED_EXPONENTS[-1]
# the floor indices are exactly a * (2**(e1 - e0) + 1), so the descent
# finds a 40-term progression there.
PLANTED_TERMS = 40
PLANTED_NOISE = 40
EMBED_EXPONENTS = (13, 17)
WEYL_M = 5


def subseed(seed: int, label: str) -> int:
    """32-bit seed for one generated input, independent of numpy's version."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def outputs(self) -> tuple[str, ...]:
        """Names (relative to the output directory) of the files it writes."""
        return tuple(
            Path(self.argv[i + 1]).name for i, a in enumerate(self.argv[:-1]) if a in OUTPUT_FLAGS
        )


def planted_progression(seed: int) -> list[int]:
    """A 40-term progression plus 40 noise points below 2**EMBED_EXPONENTS[0]."""
    import numpy as np

    horizon = 2 ** EMBED_EXPONENTS[0]
    rng = np.random.default_rng(subseed(seed, "planted"))
    diff = int(rng.integers(1, 101))
    start = int(rng.integers(0, horizon - (PLANTED_TERMS - 1) * diff))
    terms = {start + j * diff for j in range(PLANTED_TERMS)}
    noise = [int(v) for v in rng.permutation(horizon) if int(v) not in terms][:PLANTED_NOISE]
    return sorted(terms.union(noise))


def uniform_subset(horizon: int, density: float, seed: int) -> list[int]:
    """A uniform random subset of [0, horizon) with exactly round(density *
    horizon) elements: the Bernoulli(density) set conditioned on its size.

    The progression count grows like |A|**3, so a free size would make the
    ap-find work, and with it the pass time, vary by several percent from
    seed to seed."""
    import numpy as np

    rng = np.random.default_rng(subseed(seed, "bernoulli"))
    return sorted(int(v) for v in rng.choice(horizon, size=round(density * horizon), replace=False))


def write_corpus(workload: str, seed: int, corpus: Path) -> None:
    """Generate and write the workload's input files into ``corpus``."""
    from salemkit import cantor, formats, generators
    from salemkit.core_sets import IntegerSet

    corpus.mkdir(parents=True, exist_ok=True)
    if workload == "cantor_measure":
        formats.save_integer_set(generators.squares_below(10**4), corpus / "squares.txt")
        formats.save_plan(cantor.ternary_plan(14, unit_eta=True), corpus / "ternary14.txt")
    elif workload == "integer_side":
        formats.save_integer_set(generators.power_law_set(4096, 0.6, subseed(seed, "power_law")), corpus / "power_law.txt")
        formats.save_integer_set(IntegerSet.from_elements(uniform_subset(4096, 0.3, seed), 4096), corpus / "bernoulli.txt")
        formats.save_integer_set(generators.bernoulli_set(2048, 0.7, subseed(seed, "dense")), corpus / "dense.txt")
        planted = IntegerSet.from_elements(planted_progression(seed), 2 ** EMBED_EXPONENTS[0])
        formats.save_integer_set(planted, corpus / "planted.txt")
    elif workload != "random_fractal":
        raise ValueError(f"unknown workload {workload!r}")


def pipeline(workload: str, seed: int, corpus: Path, out: Path) -> list[Step]:
    """The workload's steps in order; later steps read earlier outputs."""
    def c(name: str) -> str:
        return str(corpus / name)

    def o(name: str) -> str:
        return str(out / name)

    steps: list[list[str]] = []
    if workload == "cantor_measure":
        approximations = [(2, 10**4), (3, 10**6), (4, 10**8)]
        steps.append(["plan", "--input", c("squares.txt"), "--horizons", "100,100,100,100", "--beta", "0.5", "--output", o("plan.txt")])
        steps.append(["construct", "--plan", o("plan.txt"), "--depth", "4", "--output", o("stage4.csv")])
        for depth, N in approximations:
            steps.append(["approximate", "--plan", o("plan.txt"), "--depth", str(depth), "--N", str(N), "--output", o(f"approx{depth}.txt")])
        inputs = [o(f"approx{depth}.txt") for depth, _ in approximations]
        steps.append(["characterize", "--inputs", *inputs, "--beta", "0.5", "--output", o("characterize.json")])
        steps.append(["extract-integers", "--inputs", *inputs, "--output", o("extracted.txt")])
        steps.append(["measure-decay", "--plan", o("plan.txt"), "--u-max", "100000", "--per-octave", "64", "--integer-grid",
                      "--spectrum", o("squares_spectrum.csv"), "--output", o("squares_decay.json")])
        steps.append(["measure-decay", "--plan", c("ternary14.txt"), "--u-max", str(3**7), "--per-octave", "2048", "--integer-grid",
                      "--output", o("ternary_decay.json")])
    elif workload == "random_fractal":
        steps.append(["random-salem", "--beta", "0.25", "--levels", "64,64,64,64", "--depth", "4", "--trials", "20",
                      "--seed", str(subseed(seed, "random-salem")), "--dump-trial", "0",
                      "--trial-output", o("trial0.json"), "--output", o("random_salem.json")])
        for beta in ("0.25", "0.5"):
            steps.append(["corollary64", "--beta", beta, "--levels", "64,64,64", "--depth", "3", "--trials", "50",
                          "--seed", str(subseed(seed, f"corollary64/{beta}")), "--output", o(f"corollary64_{beta}.json")])
        for n1 in (256, 1024, 4096):
            steps.append(["lemma63", "--beta", "0.5", "--n1", str(n1), "--trials", "200", "--u-max", "64",
                          "--seed", str(subseed(seed, f"lemma63/{n1}")),
                          "--spectrum", o(f"lemma63_{n1}_spectrum.csv"), "--output", o(f"lemma63_{n1}.json")])
    elif workload == "integer_side":
        exponents = ",".join(str(e) for e in EMBED_EXPONENTS)
        steps.append(["density", "--input", c("power_law.txt"), "--output", o("density.json")])
        for name in ("power_law", "bernoulli"):
            steps.append(["dft", "--input", c(f"{name}.txt"), "--all-freqs", "--output", o(f"dft_{name}.csv")])
        steps.append(["ap-find", "--input", c("bernoulli.txt"), "--n", "3", "--output", o("ap_bernoulli.csv")])
        steps.append(["thm32-check", "--input", c("dense.txt"), "--beta", "0.7", "--C", "4", "--output", o("thm32.json")])
        steps.append(["ap-embed", "--input", c("planted.txt"), "--exponents", exponents, "--output", o("points.txt")])
        steps.append(["ap-descent", "--points-file", o("points.txt"), "--n", str(PLANTED_TERMS),
                      "--k-max", str(EMBED_EXPONENTS[-1]), "--output", o("descent.json")])
        steps.append(["weyl", "--points-file", o("points.txt"), "--m", str(WEYL_M), "--output", o("weyl.json")])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Step(tuple(argv)) for argv in steps]


def _main(argv: list[str]) -> int:
    import argparse
    import time

    parser = argparse.ArgumentParser(description="Time one benchmark set-up: import salemkit, write the corpus.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import salemkit  # noqa: F401  (the import is part of the timed set-up)

    write_corpus(args.workload, args.seed, Path(args.out))
    print(f"{time.perf_counter() - t0:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
