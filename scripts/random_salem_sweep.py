#!/usr/bin/env python3
"""Sweep beta for the Bernoulli refinement: dimension statistics and the
equidistribution order of surviving final-stage cells, one JSON per run.

Example:
    python scripts/random_salem_sweep.py --betas 0.25,0.5,0.75 \
        --levels 64,64,64 --trials 50 --seed 20260810 --output sweep.json
"""

import argparse
import sys

import salemkit as sk
from salemkit.formats import write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--betas", default="0.25,0.5,0.75")
    ap.add_argument("--levels", default="64,64,64")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output")
    args = ap.parse_args()

    levels = tuple(int(n) for n in args.levels.split(","))
    rows = []
    for beta in (float(b) for b in args.betas.split(",")):
        config = sk.RandomFractalConfig(beta, levels, len(levels), args.trials, args.seed)
        stats = sk.dimension_experiment(config)
        orders = sk.order_experiment(config)
        rows.append({
            "beta": beta,
            "target_dim": 1 - beta,
            "mean_dim": stats.mean_dim,
            "std_dim": stats.std_dim,
            "extinct": stats.extinction_rate,
            "median_alpha": orders.median_alpha,
        })
        print(f"beta={beta}: mean_dim={stats.mean_dim:.3f} "
              f"median_alpha={rows[-1]['median_alpha']}")
    payload = {"levels": list(levels), "trials": args.trials, "seed": args.seed, "rows": rows}
    write_report(payload, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
