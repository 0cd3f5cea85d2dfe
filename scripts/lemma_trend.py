#!/usr/bin/env python3
"""Single-stage closeness of the reweighted random measure to Lebesgue,
swept over N1: the satisfied fraction should climb toward 1.

Example:
    python scripts/lemma_trend.py --n1s 256,1024,4096 --trials 200 \
        --seed 20260810
"""

import argparse
import sys

import salemkit as sk
from salemkit.cli import _int_list
from salemkit.formats import write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--n1s", type=_int_list, default="256,1024,4096")
    ap.add_argument("--u-max", type=int, default=64)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output")
    args = ap.parse_args()

    rows = []
    for n1 in args.n1s:
        config = sk.RandomFractalConfig(args.beta, (n1,), 1, args.trials, args.seed)
        rep = sk.lemma63_experiment(config, args.epsilon, args.u_max)
        rows.append(rep)
        print(f"N1={n1}: satisfied_fraction={rep.satisfied_fraction:.3f}")
    payload = {"beta": args.beta, "epsilon1": args.epsilon, "u_max": args.u_max,
               "trials": args.trials, "seed": args.seed, "rows": rows}
    write_report(payload, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
