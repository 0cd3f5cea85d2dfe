"""Command-line front door.

Every subcommand is a pure function of its input files and flags: no
clocks, no locale, no environment.  Stochastic experiment commands refuse
to run without an explicit --seed.  Exit codes: 0 success, 1 domain
failure (for example a hypothesis check failed under --strict), 2 usage
error (an unknown or missing flag, a malformed flag value, or two
conflicting inputs such as --points with --points-file), 3 I/O error or
malformed input file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import aps, cantor, core_sets, equidist, formats, measures, randfrac
from .formats import FormatError


def _int_list(text: str) -> list[int]:
    """argparse type: a nonempty comma list of integers."""
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one integer")
    return values


def _rational_list(text: str) -> list[Fraction]:
    """argparse type: a nonempty comma list of rationals p/q."""
    try:
        points = [formats.parse_rational(part) for part in text.split(",") if part.strip() != ""]
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not points:
        raise argparse.ArgumentTypeError("need at least one rational")
    return points


def _load_points(args) -> list[Fraction]:
    """The --points list, else the --points-file contents; argparse requires exactly one."""
    return args.points if args.points is not None else formats.load_points(args.points_file)


# Subcommand handlers.  Each returns the process exit code.


def cmd_density(args) -> int:
    A = formats.load_integer_set(args.input)
    grid = args.grid if args.grid else [2**j for j in range(2, A.horizon.bit_length())] + [A.horizon]
    formats.write_report(core_sets.fractional_density(A, sorted(set(grid))), args.output)
    return 0


def cmd_dft(args) -> int:
    A = formats.load_integer_set(args.input)
    if args.freqs:
        freqs = args.freqs
    elif args.all_freqs:
        if A.horizon > sys.maxsize:
            raise ValueError(f"--all-freqs cannot list the frequencies below a horizon past {sys.maxsize}")
        freqs = list(range(A.horizon))
    else:
        freqs = core_sets.geometric_grid(1, A.horizon - 1, args.per_octave, integers=True)
    values = core_sets.dft_values(A, freqs)
    if args.format == "csv":
        formats.write_text(args.output, formats.spectrum_csv(freqs, values, freq_label="m"))
    else:
        columns = zip(map(float, freqs), values.real.tolist(), values.imag.tolist(), core_sets._moduli(values).tolist())
        spectrum = [{"m": m, "re": re, "im": im, "abs": mag} for m, re, im, mag in columns]
        formats.write_report({"spectrum": spectrum}, args.output)
    return 0


def cmd_weyl(args) -> int:
    points = _load_points(args)
    value = core_sets.weyl_sum(points, args.m)
    formats.write_report({"m": args.m, "re": value.real, "im": value.imag, "abs": abs(value)}, args.output)
    return 0


def cmd_plan(args) -> int:
    A = formats.load_integer_set(args.input)
    plan = cantor.make_plan(A, args.horizons, args.beta, unit_eta=args.unit_eta)
    formats.save_plan(plan, args.output)
    return 0


def cmd_construct(args) -> int:
    plan = formats.load_plan(args.plan)
    stage = cantor.build_stage(plan, args.depth)
    formats.write_text(args.output, formats.stage_csv(stage))
    return 0


def cmd_measure_decay(args) -> int:
    plan = formats.load_plan(args.plan)
    grid = core_sets.geometric_grid(args.u_min, args.u_max, args.per_octave, integers=args.integer_grid)
    beta = args.beta if args.beta is not None else plan.beta
    report = measures.decay_check(plan, grid, beta, args.tolerance)
    if args.spectrum:
        us, values = zip(*report.spectrum)
        formats.atomic_write_text(args.spectrum, formats.spectrum_csv(us, values, freq_label="u"))
    formats.write_report(report, args.output)
    return 0 if report.passed or not args.strict else 1


def cmd_approximate(args) -> int:
    if args.plan is not None:
        target = cantor.build_stage(formats.load_plan(args.plan), args.depth)
    else:
        target = _load_points(args)
    approx = equidist.n_approximation(target, args.N)
    formats.save_approximation(approx, args.output)
    return 0


def cmd_characterize(args) -> int:
    approximations = [formats.load_approximation(p) for p in args.inputs]
    report = equidist.characterize_salem(approximations, args.beta, args.tolerance)
    formats.write_report(report, args.output)
    return 0 if report.verdict == "salem" or not args.strict else 1


def cmd_extract_integers(args) -> int:
    approximations = [formats.load_approximation(p) for p in args.inputs]
    B = equidist.integers_from_approximations(approximations)
    formats.save_integer_set(B, args.output)
    return 0


def cmd_ap_find(args) -> int:
    A = formats.load_integer_set(args.input)
    if args.format == "csv":
        # Column blocks straight from the search: no Python row per witness.
        blocks = aps._run_blocks(A.elements, args.n, args.first_only)
        formats.write_text(args.output, formats.witnesses_csv(blocks, A.elements))
    else:
        witnesses = aps.find_ap_integers(A, args.n, first_only=args.first_only)
        formats.write_report({"witnesses": [w._asdict() for w in witnesses]}, args.output)
    return 0


def cmd_ap_embed(args) -> int:
    A = formats.load_integer_set(args.input)
    depth = args.depth if args.depth is not None else len(args.exponents)
    points = aps.dyadic_embed(A, args.exponents, depth)
    formats.save_points(points, args.output)
    return 0


def cmd_ap_descent(args) -> int:
    points = _load_points(args)
    hit = aps.grid_ap_descent(points, args.n, args.k_max)
    if hit is None:
        formats.write_report({"found": False, "stage": None, "indices": []}, args.output)
    else:
        formats.write_report({"found": True, "stage": hit.stage, "indices": list(hit.indices)}, args.output)
    return 0


def cmd_thm32_check(args) -> int:
    A = formats.load_integer_set(args.input)
    report = aps.check_thm32_hypotheses(A, args.beta, args.C)
    formats.write_report(report, args.output)
    return 0 if not (args.strict and report.failed) else 1


def _random_config(args) -> randfrac.RandomFractalConfig:
    return randfrac.RandomFractalConfig(args.beta, tuple(args.levels), args.depth, args.trials, args.seed)


def cmd_random_salem(args) -> int:
    config = _random_config(args)
    # The experiment runs first, so a refused config writes no trial file.
    stats = randfrac.dimension_experiment(config)
    if args.dump_trial is not None:
        formats.write_report(randfrac._trial_fields(config, args.dump_trial), args.trial_output)
    formats.write_report(stats, args.output)
    return 0


def cmd_lemma63(args) -> int:
    config = randfrac.RandomFractalConfig(args.beta, (args.n1,), 1, args.trials, args.seed)
    report = randfrac.lemma63_experiment(config, args.epsilon, args.u_max)
    if args.spectrum:
        us = range(1, args.u_max + 1)
        values = randfrac.mu1_hat(randfrac._refine(config, 0)[0], args.n1, config.beta, us)
        formats.atomic_write_text(args.spectrum, formats.spectrum_csv(us, values, freq_label="u"))
    formats.write_report(report, args.output)
    return 0


def cmd_corollary64(args) -> int:
    formats.write_report(randfrac.order_experiment(_random_config(args)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="salemkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        # By name: the parser is built once per process, and run_command
        # then calls whatever function the module binds under that name
        # (the benchmark's tracer rebinds the handlers it wraps).
        p.set_defaults(handler=handler.__name__)
        return p

    def add_trial_flags(p):
        """The Bernoulli refinement flags read by :func:`_random_config`."""
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--levels", type=_int_list, required=True, help="comma list of per-level sizes N_i")
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)

    def add_points_flags(group):
        """The two point inputs read by :func:`_load_points`."""
        group.add_argument("--points", type=_rational_list, help="comma list of rationals in [0,1)")
        group.add_argument("--points-file")

    p = add("density", cmd_density, "fit the growth exponent of |A ∩ [0,N)| over a checkpoint grid")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=_int_list,
                   help="comma list of checkpoints N (default: powers of 2 up to the horizon)")
    p.add_argument("--output")

    p = add("dft", cmd_dft, "normalized sparse spectrum of an integer set's indicator")
    p.add_argument("--input", required=True)
    freqs = p.add_mutually_exclusive_group()
    freqs.add_argument("--freqs", type=_int_list, help="comma list of frequencies")
    freqs.add_argument("--all-freqs", action="store_true", help="every frequency in [0, N)")
    p.add_argument("--per-octave", type=int, default=8)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--output")

    p = add("weyl", cmd_weyl, "normalized exponential sum of rational points at one frequency")
    add_points_flags(p.add_mutually_exclusive_group(required=True))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--output")

    p = add("plan", cmd_plan, "build a nested-interval plan from an integer set's prefixes")
    p.add_argument("--input", required=True)
    p.add_argument("--horizons", type=_int_list, required=True, help="comma list of per-level sizes N_k")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--unit-eta", action="store_true", help="use eta = 1 (no padding) at every level")
    p.add_argument("--output", required=True)

    p = add("construct", cmd_construct, "exact stage endpoints of a plan at a given depth")
    p.add_argument("--plan", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--output")

    p = add("measure-decay", cmd_measure_decay, "fit the spectral decay exponent of the stagewise measure")
    p.add_argument("--plan", required=True)
    p.add_argument("--beta", type=float, help="target exponent (default: the plan's beta)")
    p.add_argument("--u-min", type=float, default=2.0)
    p.add_argument("--u-max", type=float, default=4096.0)
    p.add_argument("--per-octave", type=int, default=16)
    p.add_argument("--integer-grid", action="store_true")
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--spectrum", help="also write the sampled spectrum as CSV")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output")

    p = add("approximate", cmd_approximate, "grid cells meeting a plan stage or a rational point list")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--plan")
    add_points_flags(target)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--output", required=True)

    p = add("characterize", cmd_characterize, "density/equidistribution verdict for a stage sequence")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tolerance", type=float, default=0.1)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output")

    p = add("extract-integers", cmd_extract_integers, "integer set encoding the new cells of each stage")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)

    p = add("ap-find", cmd_ap_find, "arithmetic progressions of a given length in an integer set")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--first-only", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--output")

    p = add("ap-embed", cmd_ap_embed, "map an integer set into [0,1) by the progression-preserving dyadic sum")
    p.add_argument("--input", required=True)
    p.add_argument("--exponents", type=_int_list, required=True, help="comma list of increasing dyadic exponents")
    p.add_argument("--depth", type=int)
    p.add_argument("--output", required=True)

    p = add("ap-descent", cmd_ap_descent, "finest dyadic stage whose floor indices carry an integer progression")
    add_points_flags(p.add_mutually_exclusive_group(required=True))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--output")

    p = add("thm32-check", cmd_thm32_check, "density/decay hypotheses sufficient for a 3-term progression")
    p.add_argument("--input", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--output")

    p = add("random-salem", cmd_random_salem, "dimension statistics of Bernoulli refinement trials")
    add_trial_flags(p)
    p.add_argument("--dump-trial", type=int, help="also dump this trial's stage cells as JSON")
    p.add_argument("--trial-output", default="trial.json")
    p.add_argument("--output")

    p = add("lemma63", cmd_lemma63, "single-stage closeness of the reweighted measure to Lebesgue")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--u-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spectrum", help="write trial 0's reweighted-measure spectrum as CSV")
    p.add_argument("--output")

    p = add("corollary64", cmd_corollary64, "equidistribution order of surviving final-stage cells across trials")
    add_trial_flags(p)
    p.add_argument("--output")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing never changes it."""
    return build_parser()


def run_command(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return globals()[args.handler](args)
    except (FormatError, OSError) as exc:
        print(f"salemkit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"salemkit: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
