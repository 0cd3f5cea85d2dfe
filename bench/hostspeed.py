"""Host-speed reference for the benchmark's timings.

The shared host the benchmark was written on changes speed by up to a
factor of two over seconds to minutes, so raw wall times of the same code
differ by 20-30% between runs.  A reference that streams arrays larger
than the caches tracked those changes; a cache-resident one did not.  Each timed set-up and pass is bracketed by a fixed reference
computation, and the reported times are measured time divided by the mean
of the two bracketing reference times.

The reference runs in a helper process that waits idle while the
workload runs, so its arrays never count toward the workload process's
peak resident memory, and the two never compete for the CPU.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path


def reference_seconds() -> float:
    """Wall time of a fixed mix of interpreter, Fraction and numpy work.

    The numpy part streams arrays larger than the CPU caches, so the
    reference slows down under memory-bandwidth contention as the
    workloads do."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    x = Fraction(0)
    for i in range(1, 3000):
        x += Fraction(i, i + 7)
    residues = np.arange(1 << 20, dtype=np.int64)
    for k in (1, 7, 13):
        np.exp((-2j * np.pi / 4096) * (residues * k % 4096)).sum()
    return time.perf_counter() - start


def _serve() -> None:
    """Helper loop: run the reference once per line read from stdin and
    write its time to stdout; return at end of input."""
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)


class HostReference:
    """Context manager owning the helper process (this file run as a
    script); :meth:`measure` runs the reference once and returns its wall
    time.  Leaving the context closes the helper's input and waits until
    the helper has ended, killing it if it does not end by itself."""

    def __enter__(self) -> "HostReference":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host reference helper ended (exit {self._proc.poll()})")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Timeline:
    """Timings interleaved with reference runs: r0, t0, r1, t1, r2, ..."""

    def __init__(self, host: HostReference) -> None:
        self.host = host
        self.references = [host.measure()]

    def ratio(self, seconds: float) -> float:
        """Take the reference after a timing made since the last one and
        return the timing over the mean of the two references around it."""
        self.references.append(self.host.measure())
        return seconds / ((self.references[-2] + self.references[-1]) / 2)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    _serve()
