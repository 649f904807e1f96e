"""Host speed probe: the scale that turns measured seconds into reference seconds.

On a shared VM the speed of a vCPU moves between levels up to 1.7x apart for
seconds to a minute at a time (a shared 2-vCPU Intel Xeon VM at 2.1 GHz,
Python 3.11), and no run length averages that out.  So every child times a
fixed, stdlib-only reference loop in its own thread, one tick every TICK_S
seconds while the workload runs (from a SIGALRM handler, between the
program's bytecodes).  Each tick gives the speed of the moment as
REFERENCE_S / (its duration); the benchmark reports wall and CPU time
multiplied by the mean of those ratios, i.e. in seconds of a machine on
which `reference_work` takes REFERENCE_S.

Set-up time (interpreter launch, import, inputs) follows another clock: it
tracks how fast the host starts a process, which drifts by up to 1.7x between
groups of launches a few seconds apart.  So each child launch is preceded by
a bare `python3 -I` launch, and set-up time is reported in seconds of
a machine on which that bare launch takes REFERENCE_LAUNCH_S
(`launch_scale`).  Medians over groups of ten launches spread 0.43 measured
and 0.04 scaled on the VM above.

`reference_work` mixes the operations the program is made of (dict updates,
big-integer shifts, masks and XORs, Fraction arithmetic, list sorting) and
calls nothing in `typeii`, so no change to the program can move the scale.
The time spent in ticks is subtracted before scaling.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.001  # the duration of reference_work that defines speed 1
REFERENCE_LAUNCH_S = 0.05  # the bare interpreter launch that defines speed 1
TICK_S = 0.1         # interval between ticks while the workload runs

_BIG = (1 << 200) - 1


def reference_work(n: int = 300) -> int:
    """A fixed mix of interpreter work, about a millisecond at speed 1."""
    table: dict[int, int] = {}
    words = []
    acc = Fraction(0)
    x = 0
    for i in range(n):
        table[i % 37] = table.get(i % 37, 0) + i
        word = (_BIG >> (i % 50)) & 0xFFFF
        x ^= word
        words.append(word)
        acc += Fraction(i % 11 + 1, i % 7 + 1)
    words.sort()
    return len(table) + words[-1] + x + acc.numerator % 7


class Probe:
    """Ticks of `reference_work`, one per TICK_S seconds inside a `with`
    block."""

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.ticks.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        """Seconds spent in ticks."""
        return sum(self.ticks)

    def scale(self) -> float:
        """Mean speed over the ticks, relative to REFERENCE_S."""
        return statistics.fmean(REFERENCE_S / t for t in self.ticks)


def launch_scale(env: dict, timeout: float) -> float:
    """Launch speed now: REFERENCE_LAUNCH_S over the time a bare interpreter
    takes from launch to its first statement."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-I", "-c", "import time; print(time.perf_counter())"],
        env=env, check=True, capture_output=True, text=True,
        timeout=max(timeout, 0.001)).stdout
    return REFERENCE_LAUNCH_S / (float(out) - t0)
