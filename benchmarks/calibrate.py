"""Machine-speed probe for calibrating the benchmark's times.

The benchmark shares its cores with other tenants, and the same firebreak
call runs up to twice as slow for stretches of seconds to minutes. ``probe``
times a fixed piece of pure Python in the style of the solver, a recursion over
vertex bitmasks with a dict memo, that no firebreak change can touch. While
jobs run, ``Sampler`` probes every tenth of a second from a SIGALRM handler,
so the probes also land inside long jobs, and its ``clock`` leaves the probing
time out. The runner scales each pass's time by ``REFERENCE_S`` over the mean
probe of that pass: the pass in seconds of a machine on which the probe takes
``REFERENCE_S``. See NOTES.md for the measured effect.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

REFERENCE_S = 0.0035
_N = 40


def _graph() -> list[int]:
    rng = random.Random(1)
    adj = [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            if rng.random() < 0.2:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


def _independent_sets(rest: int, memo: dict[int, int]) -> int:
    if not rest:
        return 1
    got = memo.get(rest)
    if got is None:
        v = (rest & -rest).bit_length() - 1
        rest_v = rest & ~(1 << v)
        got = memo[rest] = _independent_sets(rest_v, memo) + _independent_sets(rest_v & ~_ADJ[v], memo)
    return got


def probe() -> float:
    """Seconds taken to count the independent sets of a fixed 39-vertex graph."""
    t0 = time.perf_counter()
    _independent_sets((1 << _N) - 2, {})
    return time.perf_counter() - t0


class Sampler:
    """Probe every ``every`` seconds from a SIGALRM handler inside the block.

    ``clock`` is ``time.perf_counter`` minus the time spent probing, so an
    interval measured with it leaves the probes out.
    """

    def __init__(self, every: float):
        self.every = every
        self.probes: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired while a probe was running
            return
        self._busy = True
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        # A probe can run between any two bytecodes; re-read until none did.
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self, first: int) -> float:
        """REFERENCE_S over the mean of the probes from index ``first`` on,
        probing once more if there are none. The mean, not the median, because
        a pass's time is the sum of its slow and fast stretches."""
        if len(self.probes) <= first:
            self._sample()
        return REFERENCE_S / statistics.fmean(self.probes[first:])
