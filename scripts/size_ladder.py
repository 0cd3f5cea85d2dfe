#!/usr/bin/env python3
"""Size ladder: wall time and peak memory of three command families as the
input grows, each rung in a fresh process.

Families:
  measure-decay  the 14-level unit ternary plan at 2048 per octave on the
                 integer grid 2..u_max, u_max = 3**7 .. 3**12;
  corollary64    the order experiment at beta 0.25, 20 trials, seed
                 20261019, on levels 64**3 and 64**4;
  lemma63        lemma 6.3 at beta 0.5, N1 4096, u_max 64, seed 20261019,
                 on 200, 800, 3200 and 12800 trials (each trial is seeded
                 on its own).

Each rung runs ``RUNS`` (3) times, each in a fresh interpreter that imports
salemkit from ``--src`` and times the one command in process, writing its
report to a temporary directory.  The child also times its salemkit import
line (``import_s``), which loads every layer through ``salemkit.cli``: the
command line's start-up before any work.  A rung records each run's wall
time and import time with their medians, the largest ``ru_maxrss`` of its
runs, the sha256 of the report (the same in every run, or the rung fails)
and the log-log growth exponent log(t / t_below) / log(size / size_below)
from the rung below, where the size is u_max, the resolution M or the
trial count.  A family stops after its first rung over 30 s or 1 GB.  This
script makes no speed claim; it names the rungs whose time or memory grows
faster than the algorithm's.

Example:
    python scripts/size_ladder.py --output ladder.json
    python scripts/size_ladder.py --src ../parent/src --family corollary64
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STOP_SECONDS = 30.0
STOP_MB = 1024.0
RUNS = 3
FAMILIES = ("measure-decay", "corollary64", "lemma63")

# Run in the fresh interpreter: argv is src, then the salemkit command.
CHILD = r"""
import hashlib, json, resource, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from salemkit import cantor, cli, formats
import_s = time.perf_counter() - start
argv = sys.argv[2:]
with tempfile.TemporaryDirectory() as tmp:
    argv = [a.replace("{tmp}", tmp) for a in argv]
    # The measure-decay family's plan, written before the clock starts.
    formats.save_plan(cantor.ternary_plan(14, unit_eta=True), Path(tmp) / "ternary14.txt")
    start = time.perf_counter()
    code = cli.run_command(argv)
    seconds = time.perf_counter() - start
    report = Path(tmp) / "report.json"
    digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "seconds": seconds, "import_s": import_s, "maxrss_mb": maxrss_mb, "sha256": digest}))
"""


def rungs(family: str) -> list[tuple[int, list[str]]]:
    """(size, salemkit argv) per rung; ``{tmp}`` is the run's directory."""
    if family == "measure-decay":
        return [
            (3**e, ["measure-decay", "--plan", "{tmp}/ternary14.txt", "--u-max", str(3**e), "--per-octave", "2048",
                    "--integer-grid", "--output", "{tmp}/report.json"])
            for e in range(7, 13)
        ]
    if family == "corollary64":
        return [
            (64**d, ["corollary64", "--beta", "0.25", "--levels", ",".join(["64"] * d), "--depth", str(d),
                     "--trials", "20", "--seed", "20261019", "--output", "{tmp}/report.json"])
            for d in (3, 4)
        ]
    if family == "lemma63":
        return [
            (trials, ["lemma63", "--beta", "0.5", "--n1", "4096", "--u-max", "64", "--trials", str(trials),
                      "--seed", "20261019", "--output", "{tmp}/report.json"])
            for trials in (200, 800, 3200, 12800)
        ]
    raise ValueError(f"unknown family {family!r}")


def run_rung(src: str, argv: list[str], runs: int) -> dict:
    results = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["code"] != 0:
            raise RuntimeError(f"salemkit {' '.join(argv)} exited {result['code']}: {proc.stderr}")
        results.append(result)
    digests = {r["sha256"] for r in results}
    if len(digests) != 1:
        raise RuntimeError(f"salemkit {' '.join(argv)} wrote different reports across runs")
    seconds = [r["seconds"] for r in results]
    import_s = [r["import_s"] for r in results]
    maxrss = [r["maxrss_mb"] for r in results]
    return {
        "seconds": seconds,
        "median_s": statistics.median(seconds),
        "import_s": import_s,
        "median_import_s": statistics.median(import_s),
        "maxrss_mb_runs": maxrss,
        "maxrss_mb": max(maxrss),
        "sha256": digests.pop(),
    }


def ladder(family: str, src: str, runs: int) -> list[dict]:
    rows: list[dict] = []
    for size, argv in rungs(family):
        row = {"size": size, "argv": argv, **run_rung(src, argv, runs)}
        if rows:
            below = rows[-1]
            row["growth"] = math.log(row["median_s"] / below["median_s"]) / math.log(size / below["size"])
        rows.append(row)
        print(f"{family} size={size} median_s={row['median_s']:.4g} median_import_s={row['median_import_s']:.4g}"
              f" maxrss_mb={row['maxrss_mb']:.1f}"
              + (f" growth={row['growth']:.3f}" if "growth" in row else ""), flush=True)
        if row["median_s"] > STOP_SECONDS or row["maxrss_mb"] > STOP_MB:
            break
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the salemkit package")
    ap.add_argument("--family", action="append", choices=FAMILIES, help="family to run (repeatable; default all)")
    ap.add_argument("--output", help="write the ladder as JSON")
    args = ap.parse_args()
    families = args.family or list(FAMILIES)
    payload = {"src": args.src, "runs": RUNS, "families": {f: ladder(f, args.src, RUNS) for f in families}}
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
