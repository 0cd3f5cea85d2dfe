#!/usr/bin/env python3
"""salemkit benchmark: one workload per side of the paper's correspondence.

    python3 bench/run.py --workload cantor_measure --seed 20260810 --seconds 36 --trace 0

Each workload is a fixed pipeline of in-process ``salemkit.cli.run_command``
calls (see ``workloads.py``), run from one process with one thread on a
corpus generated from ``--seed``.  A run repeats the pipeline ("a pass")
for about ``--seconds`` seconds and checks every file each pass writes
(see ``checks.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (one set-up is a
fresh interpreter importing salemkit and writing the corpus; several are
timed), ``pass_s`` (pass wall time) and ``peak_rss_mb`` (peak resident
memory of this process, which runs only this workload).

``setup_s`` and ``pass_s`` are host-speed adjusted (see ``hostspeed.py``):
each is the median over the run of measured time divided by the
reference time around it, times REFERENCE_S, that is seconds at the host
speed where the reference takes REFERENCE_S.  The raw wall times and the
reference times are on the summary line and in the details file.

``--trace 1`` alternates untraced and traced passes (see ``tracer.py``)
and prints the per-layer metrics, the tracing overhead, and fails the
run if a per-layer count differs between traced passes.

The last stdout line is the result object; a line before it gives the
environment and a human-readable summary.  Details, and the spans of the
first traced pass, go to ``.bench_out/`` in the checkout.

``python3 bench/run.py --record`` re-records ``golden.json`` (output
hashes for the default and the held-out seed) and ``coverage.json``
(public layer functions no workload reaches).  Only do that for a change
that is meant to alter outputs or the workloads.
"""

from __future__ import annotations

import os

# One thread: keep BLAS from starting a pool (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
COVERAGE = BENCH / "coverage.json"

DEFAULT_SEED = 20260810  # the acceptance suite's SEED
HELDOUT_SEED = 1602  # recorded, never used while tuning a change
# Nominal duration of hostspeed.reference_seconds(): about its median on
# a 2-vCPU Xeon virtual machine (Python 3.11, numpy 2.4), so adjusted times read
# close to wall seconds there.
REFERENCE_S = 0.17
SETUP_REPS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

_clock = time.perf_counter


# Per-layer metrics of a traced run: self time of these functions, call
# counts of these, the tracer's counters, and ratios over the counts.
LAYER_TIMES = (
    "core_sets.dft_char", "core_sets.weyl_sum", "core_sets.fractional_density",
    "cantor.build_stage", "cantor.make_plan",
    "measures.decay_check", "measures.mu_hat", "measures.q_factor", "measures.truncation_for",
    "equidist.n_approximation", "equidist.weyl_moduli", "equidist.characterize_salem",
    "equidist.integers_from_approximations",
    "aps.find_ap_integers", "aps.grid_ap_descent", "aps.check_thm32_hypotheses", "aps.dyadic_embed",
    "randfrac.generate_trial", "randfrac.dimension_experiment", "randfrac.corollary64_check",
    "randfrac.lemma63_experiment",
)
LAYER_CALLS = (
    "core_sets.decay_exponent_fit", "measures.mu_hat", "measures.q_factor", "measures.truncation_for",
    "equidist.equidist_order", "randfrac.generate_trial", "randfrac.mu1_hat",
)
LAYER_COUNTERS = (
    "core_sets.dft_char.terms", "cantor.build_stage.endpoints", "cantor.build_stage.max_den_bits",
    "measures.truncation_for.capped", "equidist.n_approximation.cells", "equidist.weyl_moduli.terms",
    "aps.find_ap_integers.pairs", "aps.find_ap_integers.witnesses",
    "randfrac.generate_trial.cells", "randfrac.generate_trial.extinct",
    "formats.bytes_written", "formats.bytes_read",
)
# (name, numerator, denominator) over the counts above.
LAYER_RATIOS = (
    ("aps.find_ap_integers.witnesses_per_pair", "aps.find_ap_integers.witnesses", "aps.find_ap_integers.pairs"),
    ("randfrac.generate_trial.extinct_per_call", "randfrac.generate_trial.extinct", "randfrac.generate_trial.calls"),
    ("measures.truncation_for.capped_per_call", "measures.truncation_for.capped", "measures.truncation_for.calls"),
    ("measures.truncation_for.calls_per_mu_hat_call", "measures.truncation_for.calls", "measures.mu_hat.calls"),
)


# Running passes.


def run_pass(cli, steps, out: Path) -> tuple[float, list[float], list[int]]:
    """One pass of the pipeline into a fresh ``out``: wall time, per-step
    times and exit codes."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    step_s, codes = [], []
    with contextlib.redirect_stdout(sys.stderr):
        start = _clock()
        for step in steps:
            t0 = _clock()
            codes.append(cli.run_command(list(step.argv)))
            step_s.append(_clock() - t0)
        pass_s = _clock() - start
    return pass_s, step_s, codes


def failed_steps(steps, codes, bad: dict[str, str]) -> list[int]:
    """Indices of steps that exited non-zero or wrote a file that failed a check."""
    return [
        i for i, (step, code) in enumerate(zip(steps, codes))
        if code != 0 or "*" in bad or any(name in bad for name in step.outputs)
    ]


class Run:
    """Passes of one workload, checked against one reference manifest."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import checks
        from salemkit import cli

        self.checks = checks
        self.cli = cli
        self.workload, self.seed = workload, seed
        self.corpus, self.out = work / "corpus", work / "out"
        self.steps = workloads.pipeline(workload, seed, self.corpus, self.out)
        self.outputs = [name for step in self.steps for name in step.outputs]
        self.reference = checks.golden_manifest(workload, seed)
        self.reference_kind = "golden" if self.reference is not None else "first pass"
        self.attempted = 0
        self.failures: list[dict] = []

    def one_pass(self) -> tuple[float, list[float]]:
        pass_s, step_s, codes = run_pass(self.cli, self.steps, self.out)
        bad: dict[str, str] = {}
        if self.attempted == 0:
            bad.update(self.checks.oracle_check(self.workload, self.seed, self.corpus, self.out))
            if self.reference is None:
                # Files that failed an oracle check fail again in every later pass.
                self.reference = {
                    name: self.checks.sha256(self.out / name)
                    for name in self.outputs if (self.out / name).exists() and name not in bad and "*" not in bad
                }
        bad.update(self.checks.compare_hashes(self.out, self.outputs, self.reference))
        failed = failed_steps(self.steps, codes, bad)
        for i in failed:
            self.failures.append({"pass": self.attempted // len(self.steps), "step": self.steps[i].subcommand,
                                  "exit": codes[i], "files": {n: bad[n] for n in self.steps[i].outputs if n in bad}})
        self.attempted += len(self.steps)
        return pass_s, step_s

    def subcommand_times(self, step_s: list[float]) -> dict[str, float]:
        totals = dict.fromkeys(workloads.SUBCOMMANDS, 0.0)
        for step, t in zip(self.steps, step_s):
            totals[step.subcommand] += t
        return totals


def adjusted(ratios: list[float]) -> float:
    """Median of timing / reference ratios, in seconds at the host speed
    where the reference takes REFERENCE_S."""
    return statistics.median(ratios) * REFERENCE_S


# Set-up.


def timed_setups(workload: str, seed: int, corpus: Path, timeline) -> tuple[list[float], list[float], bool]:
    """Set up SETUP_REPS times, each in a fresh interpreter, into ``corpus``.
    Returns the times, their ratios to the host reference, and whether
    every set-up wrote identical files."""
    import checks

    times, ratios, digests = [], [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(corpus, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed), "--out", str(corpus)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
        ratios.append(timeline.ratio(times[-1]))
        corpus.mkdir(parents=True, exist_ok=True)
        digests.append({p.name: checks.sha256(p) for p in sorted(corpus.iterdir())})
    return times, ratios, all(d == digests[0] for d in digests)


# Environment.


def _cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(ticks_before, ticks_after) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }
    if ticks_before and ticks_after and len(ticks_before) > 7:
        delta = [b - a for a, b in zip(ticks_before, ticks_after)]
        env["steal_ticks"] = delta[7]
        env["steal_share"] = delta[7] / max(1, sum(delta[:8]))
    return env


# Metrics.


def per_layer_metrics(traced: list[dict], subcommand_s: dict[str, list[float]],
                      traced_ratio: list[float], untraced_ratio: list[float]) -> dict:
    first = traced[0]
    counts = {f"{name}.calls": first["calls"].get(name, 0) for name in LAYER_CALLS}
    counts.update({name: first["counters"].get(name, 0) for name in LAYER_COUNTERS})
    metrics = {name: (value, "count") for name, value in counts.items()}

    def median_self(pred) -> float:
        return statistics.median(float(sum(v for k, v in t["self_s"].items() if pred(k))) for t in traced)

    for name in LAYER_TIMES:
        metrics[f"{name}.self_s"] = (median_self(lambda k, n=name: k == n), "s")
    for layer in ("core_sets", "cantor", "measures", "equidist", "aps", "randfrac", "formats", "cli"):
        metrics[f"{layer}.self_s"] = (median_self(lambda k, p=layer + ".": k.startswith(p)), "s")
    for name, num, den in LAYER_RATIOS:
        metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, "ratio")
    for sub in workloads.SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (statistics.median(subcommand_s[sub]), "s")
    traced_s, untraced_s = adjusted(traced_ratio), adjusted(untraced_ratio)
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.traced_passes"] = (len(traced_ratio), "count")
    metrics["trace.untraced_passes"] = (len(untraced_ratio), "count")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, host) -> tuple[dict, dict]:
    """Set up, run passes for about ``seconds``, and return the run's details
    (the result object among them) and the spans of its first traced pass."""
    ticks_before = _cpu_ticks()
    corpus = work / "corpus"
    timeline = hostspeed.Timeline(host)
    setup_s, setup_ratio, corpus_stable = timed_setups(workload, seed, corpus, timeline)

    sys.path.insert(0, str(workloads.SRC))
    from tracer import Tracer

    run = Run(workload, seed, work)
    tracer = Tracer() if trace else None
    pass_s: list[float] = []
    pass_ratio: list[float] = []
    traced_ratio: list[float] = []
    traced_pass_s: list[float] = []
    traced: list[dict] = []
    spans = None
    subcommand_s = {sub: [] for sub in workloads.SUBCOMMANDS}
    start = _clock()
    while True:
        t, step_s = run.one_pass()
        pass_s.append(t)
        pass_ratio.append(timeline.ratio(t))
        for sub, v in run.subcommand_times(step_s).items():
            subcommand_s[sub].append(v)
        if tracer is not None:
            tracer.install()
            try:
                t, _ = run.one_pass()
            finally:
                tracer.uninstall()
            traced_pass_s.append(t)
            traced_ratio.append(timeline.ratio(t))
            taken = tracer.take()
            pass_spans = taken.pop("spans")
            spans = spans or pass_spans
            traced.append(taken)
        elapsed = _clock() - start
        per_round = statistics.median(pass_s) + statistics.median(timeline.references)
        if traced_pass_s:
            per_round += statistics.median(traced_pass_s) + statistics.median(timeline.references)
        enough = len(pass_s) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if enough and elapsed + per_round > seconds:
            break

    counts_repeat = all(t["calls"] == traced[0]["calls"] and t["counters"] == traced[0]["counters"] for t in traced)
    failed = len(run.failures)
    correct = failed == 0 and corpus_stable and counts_repeat
    if trace:
        metrics = per_layer_metrics(traced, subcommand_s, traced_ratio, pass_ratio)
        metrics["host.reference_s"] = (statistics.median(timeline.references), "s")
    else:
        metrics = {
            "setup_s": (adjusted(setup_ratio), "s"),
            "pass_s": (adjusted(pass_ratio), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "reference": run.reference_kind,
        "environment": environment(ticks_before, _cpu_ticks()),
        "setup_s": setup_s,
        "pass_s": pass_s,
        "reference_s": timeline.references,
        "traced_pass_s": traced_pass_s,
        "failed_share": failed / run.attempted,
        "failures": run.failures,
        "corpus_stable": corpus_stable,
        "counts_repeat": counts_repeat,
        "unreached": unreached(traced) if trace else None,
        "result": result,
    }
    return details, spans


def unreached(traced: list[dict]) -> list[str]:
    """Public layer functions (as wrapped by the tracer) that no traced pass called."""
    from tracer import public_functions

    called = set().union(*(t["calls"] for t in traced))
    return sorted(set(public_functions()) - called)


# Recording the golden manifest and the coverage record.


def record() -> int:
    import checks
    from tracer import Tracer, public_functions

    sys.path.insert(0, str(workloads.SRC))
    golden: dict[str, dict] = {}
    coverage: dict = {"subcommands": {}, "reached": {}}
    for workload in workloads.WORKLOADS:
        seeds = [DEFAULT_SEED] if workload in workloads.SEED_INDEPENDENT else [DEFAULT_SEED, HELDOUT_SEED]
        for seed in seeds:
            work = WORK_DIR / f"record-{workload}-{seed}-{os.getpid()}"
            try:
                workloads.write_corpus(workload, seed, work / "corpus")
                run = Run(workload, seed, work)
                run.reference = None
                tracer = Tracer()
                tracer.install()
                try:
                    run.one_pass()
                finally:
                    tracer.uninstall()
                if run.failures:
                    print(f"{workload} seed {seed}: {run.failures}", file=sys.stderr)
                    return 1
                key = "any" if workload in workloads.SEED_INDEPENDENT else str(seed)
                golden.setdefault(workload, {})[key] = run.reference
                if seed == DEFAULT_SEED:
                    coverage["subcommands"][workload] = sorted({s.subcommand for s in run.steps})
                    coverage["reached"][workload] = sorted(tracer.take()["calls"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
    reached = set().union(*coverage["reached"].values())
    coverage["unreached"] = sorted(set(public_functions()) - reached)
    checks.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    COVERAGE.write_text(json.dumps(coverage, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.GOLDEN.name} and {COVERAGE.name}")
    return 0


def _terminate(signum, frame) -> None:
    # Unwind through the context managers so helper processes are stopped.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="salemkit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record golden.json and coverage.json")
    args = parser.parse_args(argv)
    if not (workloads.SRC / "salemkit" / "__init__.py").is_file():
        print(f"bench: no salemkit sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with hostspeed.HostReference() as host:
            details, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    result = details["result"]
    m = result["metrics"]
    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in m.items() if not args.trace or k.startswith("trace."))
    print(f"env {json.dumps(details['environment'], sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} passes={len(details['pass_s'])} outputs-vs={details['reference']} "
          f"raw_setup_s={statistics.median(details['setup_s']):.6g} raw_pass_s={statistics.median(details['pass_s']):.6g} "
          f"reference_s={statistics.median(details['reference_s']):.6g} "
          f"{summary} failed_share={result['failed']}/{result['attempted']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
