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
from salemkit.cli import _int_list
from salemkit.formats import write_report


def _float_list(text: str) -> list[float]:
    """argparse type: a nonempty comma list of floats."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one float")
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--betas", type=_float_list, default="0.25,0.5,0.75")
    ap.add_argument("--levels", type=_int_list, default="64,64,64")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--output")
    args = ap.parse_args()

    levels = tuple(args.levels)
    rows = []
    for beta in args.betas:
        config = sk.RandomFractalConfig(beta, levels, len(levels), args.trials, args.seed)
        stats = sk.dimension_experiment(config)
        orders = sk.order_experiment(config)
        rows.append({
            "beta": beta,
            "target_dim": 1 - beta,
            "mean_dim": stats.mean_dim,
            "std_dim": stats.std_dim,
            "extinct": stats.extinct,
            "median_alpha": orders.median_alpha,
        })
        print(f"beta={beta}: mean_dim={stats.mean_dim:.3f} "
              f"median_alpha={rows[-1]['median_alpha']}")
    payload = {"levels": list(levels), "trials": args.trials, "seed": args.seed, "rows": rows}
    write_report(payload, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
