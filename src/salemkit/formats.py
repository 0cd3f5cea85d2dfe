"""File formats and canonical report serialization.

Text formats are line-oriented and exact (rationals as p/q); JSON reports
are canonical: sorted keys, floats at 12 significant digits, no
environment- or clock-dependent content.  Writes are atomic (temp file
then rename) so partially written reports are never observed.  A CSV
export is built as one string from columns, not from a Python object per
field: a spectrum, which its callers hand over as its two columns of
frequencies and complex values, by one ``%`` format over the zipped
columns of frequencies, parts and moduli, and the witness rows of an
int64 search by a numpy decimal render of runs of its blocks, which also
prints the int64 stages of a trial dump.  An integer set file in the form
:func:`save_integer_set` writes is read in one pass.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cantor import C_BOUNDS, CantorStage, Level, LevelPlan
from .core_sets import IntegerSet, NApproximation, _moduli


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
    own fields, or of its ``as_dict()`` where it defines one; a 1-D int64
    array renders as the list of its ints."""
    return _render(obj)


def _render(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        # Exactly-int entries (not bool, not numpy) render as str.
        if set(map(type, obj)) <= {int}:
            return _int_list(obj)
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.int64:
        return _int_list(obj)
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


def _int_list(ints) -> str:
    """A sequence of ints, or a 1-D int64 array, as a JSON list: joined in
    blocks of 4096, so a long cell list never exists as one list of str.
    A non-negative array's blocks are printed by :func:`_decimal_rows`,
    without a Python object per entry."""
    blocks = (ints[i : i + 4096] for i in range(0, len(ints), 4096))
    if isinstance(ints, np.ndarray):
        if len(ints) and ints.min() >= 0:
            return "[" + ",".join(_decimal_rows(block, end=",")[:-1] for block in blocks) + "]"
        blocks = (block.tolist() for block in blocks)
    return "[" + ",".join(",".join(map(str, block)) for block in blocks) + "]"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to a new file beside ``path`` and rename it onto
    ``path``; its mode is 0o666 less the umask, as ``open(path, "w")`` makes.
    A target that exists and is not a regular file, such as a device or a
    pipe, is written in place, so it stays what it is."""
    path = Path(path)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w") as fh:
            fh.write(text)
        return
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_lines(path) -> list[str]:
    """The lines of the file at ``path``, decoded as UTF-8 whatever the
    locale; a file that is not UTF-8 is malformed input."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _content_lines(lines: Sequence[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line neither blank nor a "#" comment."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# Integer sets: one base-10 integer per line, optional "# horizon=N" header.


def save_integer_set(A: IntegerSet, path) -> None:
    lines = [f"# horizon={A.horizon}"]
    lines.extend(str(e) for e in A.elements)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_integer_set(path) -> IntegerSet:
    """The integer set in ``path``.  A file that is an optional
    "# horizon=" first line and one integer per line is read in one pass by
    ``int``, which strips the same whitespace as ``str.strip``; any other
    file (blank or "#" lines, a bad line, an entry not above the one
    before) is read line by line, which gives the same set, or names the
    line at fault."""
    lines = _read_lines(path)
    head = 1 if lines and lines[0].startswith("# horizon=") else 0
    try:
        return _integer_set(list(map(int, lines[head:])), int(lines[0][10:]) if head else None)
    except ValueError:
        pass
    horizon = None
    elements: list[int] = []
    for lineno, raw in enumerate(lines, 1):
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
    return _integer_set(elements, horizon)


def _integer_set(elements: list[int], horizon: int | None) -> IntegerSet:
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
    for lineno, line in _content_lines(_read_lines(path)):
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
        entries = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if not {"N", "digits", "eta"} <= entries.keys():
            raise FormatError(f"line {lineno}: expected N=, digits=, eta=")
        try:
            size = int(entries["N"])
            digits = tuple(int(d) for d in entries["digits"].split(","))
            levels.append(Level(size, digits, parse_rational(entries["eta"])))
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
    """The approximation in ``path``.  A file that is an "N=" header and
    one integer per line is read in one pass by ``int``, which strips the
    same whitespace as ``str.strip``; any other file (blank or "#" lines, a
    late "N=" line, a bad line) is read line by line, which gives the same
    result, or names the line at fault."""
    lines = _read_lines(path)
    if lines and lines[0].startswith("N="):
        try:
            N, cells = int(lines[0][2:]), list(map(int, lines[1:]))
        except ValueError:
            pass
        else:
            return _approximation(N, cells)
    N = None
    cells: list[int] = []
    for lineno, line in _content_lines(lines):
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
    return _approximation(N, cells)


def _approximation(N: int, cells: list[int]) -> NApproximation:
    try:
        return NApproximation(N, cells)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# Rational point lists: one p/q per line.


def save_points(points: Sequence[Fraction], path) -> None:
    atomic_write_text(path, "\n".join(fmt_rational(p) for p in points) + "\n")


def load_points(path) -> list[Fraction]:
    return [parse_rational(line) for _, line in _content_lines(_read_lines(path))]


# CSV exports.


def spectrum_csv(freqs: Sequence, values: Sequence[complex], *, freq_label: str = "m") -> str:
    """One row per frequency of a spectrum held as two columns, its
    frequencies and their complex values, by one % format over the zipped
    columns of frequencies, real and imaginary parts and moduli.  Each
    frequency is printed as ``float`` of it: %d prints an integral one as
    int() does, and "%.12g" % x is format(x, ".12g"), which is what
    fmt_float prints.  The row format is chosen row by row only when some
    frequency is not integral.  A modulus past the double range is "inf"."""
    head = f"{freq_label},re,im,abs\n"
    if not len(freqs):
        return head
    fs = list(map(float, freqs))
    v = np.asarray(values, dtype=complex)
    if len(v) != len(fs):
        raise ValueError("a spectrum needs one value per frequency")
    columns = zip(fs, v.real.tolist(), v.imag.tolist(), _moduli(v).tolist())
    f = np.array(fs)
    integral = np.isfinite(f) & (np.floor(f) == f)
    if integral.all():
        return head + "".join(map(_INTEGRAL_ROW.__mod__, columns))
    row_formats = [_INTEGRAL_ROW if i else _REAL_ROW for i in integral.tolist()]
    return head + "".join(map(str.__mod__, row_formats, columns))


_INTEGRAL_ROW = "%d,%.12g,%.12g,%.12g\n"
_REAL_ROW = "%.12g,%.12g,%.12g,%.12g\n"


def stage_csv(stage: CantorStage) -> str:
    """Each endpoint n/D in lowest terms, and its value n / D rounded like
    float(Fraction(n, D)), at 12 significant digits, by one % format a row.

    Below 2**53 the numerators are int64: they and D are exact doubles, so
    the float64 quotient is the correctly rounded one.  At or above it they
    are Python ints in an object array, where ``np.gcd``, ``//`` and ``/``
    are Python's int operations and ``n / D`` is again correctly rounded.
    """
    D = stage.denominator
    n = np.array(stage.numerators, dtype=np.int64 if D < 2**53 else object)
    g = np.gcd(n, D)
    rows = zip((n // g).tolist(), (D // g).tolist(), (n / D).tolist())
    return "numerator,denominator,value\n" + "".join(map("%d,%d,%.12g\n".__mod__, rows))


def witnesses_csv(blocks: Iterable[tuple], values: Sequence[int]) -> str:
    """The witness CSV: a header, then one "start,difference,length" row
    per witness of the search's column blocks (start indices into the
    sorted ``values``, differences, lengths), as ``aps._run_blocks``
    yields them.  Consecutive blocks searched on int64 are joined into runs
    of at least ``_RUN_ROWS`` rows (or the rest), each printed by one
    :func:`_decimal_rows` call without a Python object per row; any other
    block is printed row by row, where ``str`` prints an int or Fraction as
    fmt_rational does.
    """
    parts = ["start,difference,length\n"]
    row = "%s,%s,%s\n".__mod__
    v = None
    run: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def print_run() -> None:
        if run:
            parts.append(_decimal_rows(*map(np.concatenate, zip(*run))))
            run.clear()

    for starts, diffs, lengths in blocks:
        if diffs.dtype == np.int64:
            # The search ran on int64, so every value fits.
            if v is None:
                v = np.array(values, dtype=np.int64)
            run.append((v[starts], diffs, lengths))
            if sum(len(d) for _, d, _ in run) >= _RUN_ROWS:
                print_run()
        else:
            print_run()
            parts.extend(map(row, zip(map(values.__getitem__, starts.tolist()), diffs.tolist(), lengths.tolist())))
    print_run()
    return "".join(parts)


# Rows per _decimal_rows call of the witness CSV: the search's blocks hold
# a few thousand witnesses, too few for numpy rather than the calls to set
# the time, while a run of this size keeps its matrix and columns within
# about a megabyte.
_RUN_ROWS = 1 << 14


def _decimal_rows(*columns: np.ndarray, end: str = "\n") -> str:
    """Rows "a,b,c" of equal-length non-negative int64 columns, each ended
    by ``end`` and each entry in decimal as ``str`` prints it.

    One uint8 matrix holds a row per line.  Each column is cast to the
    narrowest of uint16, uint32 and uint64 that holds its largest value,
    and its digits are written right to left, one division pass per digit
    position: q = x // 10 and the digit x - 10*q, exact integer arithmetic
    at every size.  A digit position left of a value's leading digit, where
    x is already 0, is 0 (the last position never is, so 0 prints as "0"),
    and the zero bytes are dropped at the end.
    """
    tops = [int(c.max()) if c.size else 0 for c in columns]
    widths = [len(str(top)) for top in tops]
    mat = np.empty((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    stop = 0
    for c, top, width in zip(columns, tops, widths):
        x = c.astype(np.uint16 if top < 1 << 16 else np.uint32 if top < 1 << 32 else np.uint64)
        last = stop + width - 1
        for j in range(last, stop - 1, -1):
            q = x // 10
            digit = x - q * 10
            digit += 48
            if j < last:
                digit *= x != 0
            mat[:, j] = digit
            x = q
        stop += width + 1
        mat[:, stop - 1] = ord(",")
    mat[:, -1] = ord(end)
    return mat[mat != 0].tobytes().decode("ascii")


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
