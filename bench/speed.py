"""The speed reference: how fast this CPU does exact arithmetic, moment by moment.

On a shared virtual machine the same request can take 0.6x to 1.3x its
usual time, CPU time included, because other tenants load the host core
under the virtual CPU; the load changes from one stretch of a second to
the next.  So while a run lasts, a sampler process shares the one CPU the
benchmark is pinned to with the requests: every INTERVAL_S it wakes,
runs one fixed probe of stdlib exact arithmetic (`Fraction` sums and
binomials, the kind of work bdk does) and records the probe's own CPU
time.  A request's wall and CPU times are scaled by NOMINAL_S over the
mean probe time in its interval, padded by PAD_S, so they read as
seconds on a CPU where one probe takes NOMINAL_S.  A loaded stretch
slows the probes beside a request as much as the request, and cancels
out; a slower program does not slow the probes, and shows in full.  The
sampler costs the requests about 1 % of the CPU.

    python3 speed.py OUT    sample until standard input closes, then write
                            the samples to the file OUT
"""
from __future__ import annotations

import bisect
import os
import select
import statistics
import struct
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

__all__ = ["NOMINAL_S", "INTERVAL_S", "PAD_S", "probe", "Speedometer"]

#: CPU time of one probe on the 2-vCPU machine the benchmark was defined on
#: (median over a run).  It only sets the scale of the reported times;
#: changing it moves every run of every version alike.
NOMINAL_S = 0.00065

#: Time between probes.
INTERVAL_S = 0.05

#: Probes this long before a request starts or after it ends also count for
#: it, so that a 0.1 s request still has a few.  The load changes within a
#: second, so a wider pad tracks it worse: at 0.25 s the same request spread
#: half as much again from one run to the next as at 0.05 s.
PAD_S = INTERVAL_S

_RECORD = struct.Struct("<dd")  # CLOCK_MONOTONIC at the probe's start, its CPU seconds


def probe() -> Fraction:
    """One fixed piece of exact arithmetic; always the same work and result."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(comb(40, i % 40) * (i % 97), 97 + i % 13)
    return total


def _sample(out: str) -> None:
    """The sampler: a probe every INTERVAL_S until standard input closes."""
    records = bytearray()
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start, cpu = time.monotonic(), time.thread_time()
        probe()
        records += _RECORD.pack(start, time.thread_time() - cpu)
    Path(out).write_bytes(records)


class Speedometer:
    """Runs the sampler for the length of a `with` block; then scales times.

    The caller must already be pinned to one CPU, which the sampler and
    every request inherit.
    """

    def __init__(self, work: Path) -> None:
        self._out = work / "speed.bin"
        self._times = []
        self._cpu = []

    def __enter__(self) -> "Speedometer":
        self._out.unlink(missing_ok=True)
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__)), str(self._out)],
                                      stdin=subprocess.PIPE, env={"PATH": os.defpath})
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._out.exists():
            for start, cpu in _RECORD.iter_unpack(self._out.read_bytes()):
                self._times.append(start)
                self._cpu.append(cpu)
            self._out.unlink()

    def scale(self, start: float, seconds: float) -> float:
        """Factor that turns the times of a request that ran from `start` for
        `seconds` into nominal seconds; valid once the `with` block has ended."""
        lo = bisect.bisect_left(self._times, start - PAD_S)
        hi = bisect.bisect_right(self._times, start + seconds + PAD_S)
        if lo == hi:
            raise RuntimeError("the speed sampler recorded nothing while a request ran")
        return NOMINAL_S / statistics.fmean(self._cpu[lo:hi])


if __name__ == "__main__":
    _sample(sys.argv[1])
