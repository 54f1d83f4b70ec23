"""Host-speed calibration of the end-to-end timings.

On a host whose cores are shared with other tenants, the speed of
pure-Python code swings widely within seconds.  On a 2-vCPU 2.1 GHz
cloud VM, the median time of one idempotent soplex compile, taken over
successive 2.4-s windows for 90 s, ranged from 41 to 80 ms, while its
ratio to the time of the fixed kernel below, timed alternately with it,
stayed within 12 to 15.  Timings of separate runs, and of sets of runs
taken minutes apart, differ by as much.

:class:`HostClock` therefore times :func:`_kernel` — pure Python that
calls nothing in ``src/`` — whenever the driver calls
:meth:`HostClock.calibrate`: before every step of a run and of its
set-up, and after the last.  :meth:`HostClock.seconds` converts a host
interval inside a step into seconds at the reference speed: its length
times :data:`REFERENCE_S` over the kernel's mean time in the samples
taken within :data:`SMOOTH_S` of it, before and after.  Single samples
scatter — two taken 20 ms apart differ by 8% in the median and by 40%
at the 90th percentile, far more than the host's speed changes in that
time — hence the mean.  A change to the code under test cannot move the
kernel, so it moves a converted time by the share it moves the host
time.  A clock that is never calibrated converts nothing.
"""

from __future__ import annotations

import bisect
import time
from typing import List

#: The kernel's time on an unloaded 2.1 GHz core: the speed converted
#: times are expressed at.
REFERENCE_S = 0.0007
#: Kernel timings per sample; the fastest is kept, so a single preemption
#: during one of them does not count as a slow host.
SAMPLE_REPEATS = 3
#: An interval is converted with the samples taken up to this many
#: seconds before its start or after its end.
SMOOTH_S = 0.5


def _kernel() -> int:
    table = dict.fromkeys(range(64), 0)
    acc = 0
    for i in range(4000):
        key = i & 63
        table[key] += i
        acc ^= (i * 2654435761) & 0xFFFF
    return acc + sum(table.values())


def sample() -> float:
    """The kernel's time now, in seconds."""
    best = float("inf")
    for _ in range(SAMPLE_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Kernel samples of one run, and the conversion they imply."""

    def __init__(self) -> None:
        #: host time at which each sample was taken, ascending
        self._times: List[float] = []
        #: kernel seconds of each sample
        self._samples: List[float] = []

    def calibrate(self) -> None:
        """Sample the host's speed (between steps, never inside one)."""
        taken = sample()
        self._times.append(time.perf_counter())
        self._samples.append(taken)

    def seconds(self, start: float, end: float) -> float:
        """The host interval ``[start, end]`` in reference seconds."""
        if not self._samples:
            return end - start
        lo = bisect.bisect_left(self._times, start - SMOOTH_S)
        hi = bisect.bisect_right(self._times, end + SMOOTH_S)
        window = self._samples[lo:hi]
        return (end - start) * REFERENCE_S * len(window) / sum(window)
