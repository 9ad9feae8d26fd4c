"""The host's speed while a workload runs, read off a fixed reference loop.

On a shared virtual machine the speed of the host drifts by up to half over
minutes, as other guests come and go, and a workload's wall time drifts with
it. ``Sampler`` interrupts the workload every ``PERIOD_S`` of wall time
(``SIGALRM``) and times one chunk of a fixed pure-Python reference loop, which
does not touch the program. The chunk's time, against its nominal time
``NOMINAL_CHUNK_S``, is the host's speed at that moment. Times of the
workload are scaled by the mean speed over the interval they cover, which
turns them into seconds on a host of the nominal speed; the time spent in
chunks is taken out of every interval first.

The reference loop mixes what the program's step loop does: calls, attribute
reads, small dicts, tuple allocation, float arithmetic and ``random`` draws,
over a table of about 2 MB read in a strided order. A loop of only small
dict and float operations slows more than the program when the host is busy,
and a loop over a large table slows less; the mix tracks the program best.
"""

from __future__ import annotations

import bisect
import random
import signal
from time import perf_counter

PERIOD_S = 0.025
CHUNK_ITERATIONS = 600
# A chunk's time on the nominal host: about its time on a 2-vCPU Xeon guest
# when the host is calm, so normalized times read close to calm wall times.
NOMINAL_CHUNK_S = 0.0006
# Chunks within this distance of an interval count towards its speed.
WINDOW_S = 0.1

_TABLE_MASK = (1 << 16) - 1
_TABLE = [float(i % 977) for i in range(_TABLE_MASK + 1)]
_RNG = random.Random(0)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _affine(p: _Pair, x: float) -> float:
    return p.a * 1e-3 * x + p.b


def reference_chunk(n: int = CHUNK_ITERATIONS) -> float:
    """One chunk of the reference loop; the result only defeats dead-code removal."""
    acc = 0.0
    d: dict[int, float] = {}
    out: list[tuple[int, float]] = []
    table, draw = _TABLE, _RNG.random
    j = 0
    for i in range(n):
        j = (j + 40503) & _TABLE_MASK
        k = i & 255
        v = _affine(_Pair(table[j], draw()), d.get(k, 0.0)) + (i % 7) * 0.25
        d[k] = v
        out.append((j, v))
        if len(out) > 64:
            out.clear()
        acc += v
    return acc


# The interpreter specializes a loop's code over its first runs; warm it up
# here, so that the first chunk a sampler times is not slower than the rest.
reference_chunk()


class Sampler:
    """Times a reference chunk every ``PERIOD_S`` while it is started."""

    def __init__(self):
        self.starts: list[float] = []
        self.speeds: list[float] = []  # nominal chunk time / measured chunk time
        self.paused = 0.0  # wall time spent in chunks so far
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_chunk()
        seconds = perf_counter() - t0
        self.starts.append(t0)
        self.speeds.append(NOMINAL_CHUNK_S / seconds)
        self.paused += seconds

    def start(self) -> None:
        """Time one chunk now, so that even a short workload has a speed, then arm the timer."""
        self._tick(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_speed(self, start: float | None = None, end: float | None = None) -> float:
        """Mean speed of the chunks from ``start - WINDOW_S`` to ``end + WINDOW_S``.

        Without bounds, or when no chunk falls in the window, the mean over
        all chunks, of which ``start`` times at least one. Chunks are evenly spaced in wall time, so the mean of
        their speeds weighs each moment of the interval alike.
        """
        if start is not None:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            if hi > lo:
                return sum(self.speeds[lo:hi]) / (hi - lo)
        return sum(self.speeds) / len(self.speeds)
