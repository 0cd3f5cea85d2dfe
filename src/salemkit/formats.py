"""File formats and canonical report serialization.

Text formats are line-oriented and exact (rationals as p/q); JSON reports
are canonical: sorted keys, floats at 12 significant digits, no
environment- or clock-dependent content.  Writes are atomic (temp file
then rename) so partially written reports are never observed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .cantor import C_BOUNDS, CantorStage, Level, LevelPlan
from .core_sets import IntegerSet, SpectrumSample
from .equidist import NApproximation


class FormatError(ValueError):
    """Malformed content in an input file."""


def fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def fmt_rational(q: int | Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}") from exc


def canonical_json(obj) -> str:
    """Render with sorted keys and fixed float formatting; non-finite
    floats become null.  A dataclass instance renders as the dict of its
    own fields, or of its ``as_dict()`` where it defines one."""
    return _render(obj)


def _render(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        # Exactly-int entries (not bool, not numpy) render as str, joined in
        # blocks of 4096 so a long cell list never exists as one list of str.
        if set(map(type, obj)) <= {int}:
            return "[" + ",".join(",".join(map(str, obj[i : i + 4096])) for i in range(0, len(obj), 4096)) + "]"
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(fmt_rational(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if hasattr(obj, "as_dict"):
        return _render(obj.as_dict())
    if is_dataclass(obj) and not isinstance(obj, type):
        # Shallow on purpose: dataclasses.asdict deep-copies every field.
        return _render({f.name: getattr(obj, f.name) for f in fields(obj)})
    return json.dumps(obj)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Integer sets: one base-10 integer per line, optional "# horizon=N" header.


def save_integer_set(A: IntegerSet, path) -> None:
    lines = [f"# horizon={A.horizon}"]
    lines.extend(str(e) for e in A.elements)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_integer_set(path) -> IntegerSet:
    horizon = None
    elements: list[int] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("horizon="):
                if lineno != 1:
                    raise FormatError("horizon header must be the first line")
                try:
                    horizon = int(body.split("=", 1)[1])
                except ValueError as exc:
                    raise FormatError(f"bad horizon header {line!r}") from exc
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: not an integer: {line!r}") from exc
        if elements and value <= elements[-1]:
            raise FormatError(f"line {lineno}: duplicate or decreasing entry {value}")
        elements.append(value)
    try:
        return IntegerSet(tuple(elements), horizon if horizon is not None else (elements[-1] + 1 if elements else 1))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# Plans: header "beta=<real>", an optional "c_bounds=<p/q>,<p/q>" line when
# the bounds are not cantor.C_BOUNDS, then one
# "N=<int> digits=<comma list> eta=<p/q>" per level.


def save_plan(plan: LevelPlan, path) -> None:
    lines = [f"beta={fmt_float(plan.beta)}"]
    if plan.c_bounds != C_BOUNDS:
        lines.append("c_bounds=" + ",".join(fmt_rational(b) for b in plan.c_bounds))
    for level in plan.levels:
        digits = ",".join(str(d) for d in level.digits)
        lines.append(f"N={level.size} digits={digits} eta={fmt_rational(level.eta)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_plan(path) -> LevelPlan:
    beta = None
    c_bounds = C_BOUNDS
    levels: list[Level] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("beta="):
            try:
                beta = float(line.split("=", 1)[1])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad beta") from exc
            continue
        if line.startswith("c_bounds="):
            bounds = line.split("=", 1)[1].split(",")
            if len(bounds) != 2:
                raise FormatError(f"line {lineno}: c_bounds needs two rationals")
            c_bounds = tuple(parse_rational(b) for b in bounds)
            continue
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if not {"N", "digits", "eta"} <= fields.keys():
            raise FormatError(f"line {lineno}: expected N=, digits=, eta=")
        try:
            size = int(fields["N"])
            digits = tuple(int(d) for d in fields["digits"].split(","))
            levels.append(Level(size, digits, parse_rational(fields["eta"])))
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad level entry: {exc}") from exc
    if beta is None:
        raise FormatError("missing beta header")
    if not levels:
        raise FormatError("plan has no levels")
    try:
        return LevelPlan(tuple(levels), beta, c_bounds)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# Approximations: first line "N=<int>", then one cell index per line.


def save_approximation(approx: NApproximation, path) -> None:
    lines = [f"N={approx.N}"]
    lines.extend(str(c) for c in approx.cells)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_approximation(path) -> NApproximation:
    N = None
    cells: list[int] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("N="):
            try:
                N = int(line.split("=", 1)[1])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad N header") from exc
            continue
        try:
            cells.append(int(line))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: not an integer") from exc
    if N is None:
        raise FormatError("missing N header")
    try:
        return NApproximation(N, tuple(cells))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# Rational point lists: one p/q per line.


def save_points(points: Sequence[Fraction], path) -> None:
    atomic_write_text(path, "\n".join(fmt_rational(p) for p in points) + "\n")


def load_points(path) -> list[Fraction]:
    out = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse_rational(line))
    return out


# CSV exports.


def spectrum_csv(samples: Iterable[SpectrumSample], *, freq_label: str = "m") -> str:
    lines = [f"{freq_label},re,im,abs"]
    for s in samples:
        f = int(s.frequency) if float(s.frequency).is_integer() else fmt_float(s.frequency)
        lines.append(f"{f},{fmt_float(s.value.real)},{fmt_float(s.value.imag)},{fmt_float(abs(s.value))}")
    return "\n".join(lines) + "\n"


def stage_csv(stage: CantorStage) -> str:
    # Each endpoint n/D in lowest terms; n / D rounds like float(Fraction(n, D)).
    D = stage.denominator
    lines = ["numerator,denominator,value"]
    for n in stage.numerators:
        g = math.gcd(n, D)
        lines.append(f"{n // g},{D // g},{fmt_float(n / D)}")
    return "\n".join(lines) + "\n"


def witnesses_csv(witnesses: Iterable[tuple]) -> str:
    # Rows (start, difference, length); str prints an int or Fraction as fmt_rational does.
    return "start,difference,length\n" + "".join("%s,%s,%s\n" % w for w in witnesses)


def write_text(path, text: str) -> None:
    """Write ``text`` atomically to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def write_report(obj, path) -> None:
    """Canonical JSON of a report (a dict or a dataclass instance), written
    by :func:`write_text`."""
    write_text(path, canonical_json(obj) + "\n")
