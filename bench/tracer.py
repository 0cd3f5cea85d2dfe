"""Outside-in tracing of the salemkit layers.

The tracer wraps every public function of each layer module from outside
and rebinds the wrapper in every ``salemkit`` namespace that holds the
same function object, because the modules import each other's functions
by value.  Private helpers are never wrapped: they run tens of thousands
of times per pass, and wrapping them would bury their callers' self time
under wrapper cost.

Spans nest.  A span's duration covers only the wrapped call; the
wrapper's own bookkeeping, counter computation included, is excluded from
the span and from every enclosing span, so self time (duration minus the
time covered by child spans) stays close to the untraced cost.  Spans of
one pass are held in memory and written out after the run.

Counters come from call arguments and return values only, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from types import ModuleType

PACKAGE = "salemkit"
LAYERS = ("core_sets", "cantor", "measures", "equidist", "aps", "randfrac", "formats", "cli")

_clock = time.perf_counter


def _endpoint_bits(stage) -> int:
    return max((x.denominator.bit_length() for x in stage.left_endpoints), default=0)


def _bytes_read(a, r) -> dict:
    return {"formats.bytes_read": os.path.getsize(a["path"])}


# Counters per wrapped function: (bound arguments, result) -> {metric: increment}.
# Metrics in MAX_STATS keep the largest value seen instead of a sum.
COUNTERS = {
    "core_sets.dft_char": lambda a, r: {"core_sets.dft_char.terms": len(a["freqs"]) * len(a["A"])},
    "cantor.build_stage": lambda a, r: {
        "cantor.build_stage.endpoints": len(r.left_endpoints),
        "cantor.build_stage.max_den_bits": _endpoint_bits(r),
    },
    "measures.truncation_for": lambda a, r: {"measures.truncation_for.capped": int(r[1])},
    "equidist.n_approximation": lambda a, r: {"equidist.n_approximation.cells": len(r.cells)},
    "equidist.weyl_moduli": lambda a, r: {"equidist.weyl_moduli.terms": len(a["cells"]) * len(a["ms"])},
    "aps.find_ap_integers": lambda a, r: {
        "aps.find_ap_integers.pairs": sum((a["A"].horizon - 1 - s) // (a["n"] - 1) for s in a["A"].elements),
        "aps.find_ap_integers.witnesses": len(r),
    },
    "randfrac.generate_trial": lambda a, r: {
        "randfrac.generate_trial.cells": sum(r.white_counts),
        "randfrac.generate_trial.extinct": int(r.extinct),
    },
    "formats.atomic_write_text": lambda a, r: {"formats.bytes_written": len(a["text"].encode())},
    "formats.load_integer_set": _bytes_read,
    "formats.load_plan": _bytes_read,
    "formats.load_approximation": _bytes_read,
    "formats.load_points": _bytes_read,
}
MAX_STATS = {"cantor.build_stage.max_den_bits"}


def _public(module: ModuleType):
    return [
        (name, fn) for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
    ]


def public_functions() -> list[str]:
    """``layer.function`` for every public function the tracer wraps."""
    return [f"{layer}.{name}" for layer in LAYERS for name, _ in _public(sys.modules[f"{PACKAGE}.{layer}"])]


class Tracer:
    """Install with :meth:`install`, run one pass, collect with :meth:`take`."""

    def __init__(self) -> None:
        self._originals: list[tuple[ModuleType, str, object]] = []
        self._stack: list[list] = []  # open spans: [index, covered_by_children]
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, float, float, float]] = []  # name id, parent, start, duration, self
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._origin = _clock()

    # Installation.

    def _wrap(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self._name_ids))
        count = COUNTERS.get(qualname)
        signature = inspect.signature(fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = _clock()
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)  # reserve the slot so children name their parent
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                duration = t1 - t0
                self.spans[frame[0]] = (name_id, parent, t0 - self._origin, duration, duration - frame[1])
                self.calls[qualname] += 1
                self.self_s[qualname] += duration - frame[1]
            if count is not None:
                for key, value in count(signature.bind(*args, **kwargs).arguments, result).items():
                    if key in MAX_STATS:
                        self.counters[key] = max(self.counters[key], value)
                    else:
                        self.counters[key] += value
            if stack:
                # The parent's children cover this call and its bookkeeping.
                stack[-1][1] += _clock() - entered
            return result

        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public(module):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._originals.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._originals):
            setattr(holder, attr, fn)
        self._originals.clear()

    # Results.

    def take(self) -> dict:
        """Aggregates and spans of the pass traced since the last reset."""
        spans = {
            "names": list(self._name_ids),
            "columns": ["name", "parent", "start_s", "duration_s", "self_s"],
            "rows": [[name, parent, round(start, 7), round(duration, 7), round(own, 7)]
                     for name, parent, start, duration, own in self.spans],
        }
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters), "spans": spans}
        self.reset()
        return out
