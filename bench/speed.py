"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared VM the speed of a vCPU drifts by tens of percent
within seconds, and CPU time drifts with wall time, so the drift is not
waiting but slower execution. A fixed pure-Python loop timed right next
to the measured work sees the same drift. Every timing the benchmark
reports is therefore scaled to a reference speed:

    reported = measured * REFERENCE_S / (calibration loop time nearby)

The loop is the benchmark's own code and never calls epsnet, so a change
to epsnet moves the reported figures and a change of machine speed does
not. `Sampler` times the loop on a thread every PERIOD_S seconds while a
child process runs at lower priority on the same CPU (see `pin_to_one_cpu`
and `lower_priority`); in-process work calls `calibrate()` between ops.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# Duration of one `calibrate()` on the shared 2-core VM the benchmark was
# written on, so reported figures read close to seconds there.
REFERENCE_S = 0.0015
PERIOD_S = 0.05


def calibrate() -> float:
    """Run the fixed loop once; return its wall time in seconds. It mixes
    the interpreter work epsnet does: integer bit tricks, dict updates
    and Fraction arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(1, 4000):
        m = (i * 2654435761) & 0xFFFFFFFF
        acc += (m & -m).bit_length() + m.bit_count()
    counts: dict = {}
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    sum((Fraction(1, k) for k in range(1, 60)), Fraction(0))
    return time.perf_counter() - start


def factor(samples) -> float:
    """Scale from measured time to reference-speed time."""
    return REFERENCE_S / statistics.fmean(samples)


def pin_to_one_cpu() -> None:
    """Pin this process, and so its children, to one CPU, so the sampler
    measures the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def lower_priority() -> None:
    """preexec_fn of measured children: the sampler's short loops must
    not wait behind the child."""
    os.nice(19)


class Sampler:
    """Times `calibrate()` every PERIOD_S seconds on a thread while the
    `with` block runs; `busy` is the time the loops took, which the
    measured work spent waiting for them."""

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self.busy = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            sample = calibrate()
            self.samples.append(sample)
            self.busy += sample

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # work shorter than one period
            self.samples.append(calibrate())

    @property
    def factor(self) -> float:
        return factor(self.samples)

    def scale(self, wall: float) -> float:
        """Reference-speed time of work that took `wall` seconds inside
        the block."""
        return max(wall - self.busy, 0.0) * self.factor
