#!/usr/bin/env python3
"""Deterministic negative control: the middle-thirds measure's spectrum is
flat along powers of 3, so neither its fitted decay exponent nor the
equidistribution order of its stage approximations 1..depth comes anywhere
near the set's box dimension log 2 / log 3.

Example:
    python scripts/ternary_control.py --depth 8 --output control.json \
        --spectrum ternary_spectrum.csv
"""

import argparse
import math
import sys

import salemkit as sk
from salemkit.formats import atomic_write_text, spectrum_csv, write_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--plan-depth", type=int, default=14)
    ap.add_argument("--output")
    ap.add_argument("--spectrum", help="write |mu_hat| over the integer grid as CSV")
    args = ap.parse_args()

    plan = sk.ternary_plan(args.plan_depth, unit_eta=True)
    u_max = 3**args.depth
    decay = sk.decay_check(plan, range(2, u_max + 1), math.log(2) / math.log(3))

    stages = [sk.n_approximation(sk.build_stage(plan, k), 3**k) for k in range(1, args.depth + 1)]
    approx = stages[-1]
    order = sk.equidist_order(stages, m_grid=range(2, 3**args.depth))

    payload = {
        "box_dimension": sk.box_dimension(plan, args.depth),
        "decay": decay.as_dict(),
        "order_alpha": order.alpha,
        "stage_cells": len(approx.cells),
    }
    print(f"box dimension {payload['box_dimension']:.4f}, decay alpha "
          f"{decay.alpha_hat:.4f}, order alpha {order.alpha:.4f}")
    if args.spectrum:
        atomic_write_text(args.spectrum, spectrum_csv(decay.spectrum, freq_label="u"))
    write_report(payload, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
