"""Core-speed ticks for the benchmark's time metrics.

The 2-vCPU host the benchmark was built on changes speed by up to 1.9x,
each vCPU on its own, switching every few seconds and staying slow or fast
for up to minutes, with no steal time reported; the program's process time
slows by the same factor. Stage times taken minutes apart therefore spread by
tens of percent whatever the program does.

A ``Ticker`` runs a tick, a fixed task of about a millisecond, from a timer
signal every ``period_s`` while a timed call runs, in the process and on the
core that run the call. A tick is pure Python (a loop that fills a dict),
then, where numpy is loaded, short numpy calls on 40x40 arrays: the two kinds
of work that dominate the program's time. Its arrays are small enough to stay
in the core's caches, so what the program does to the caches barely moves it.
Ticks run between bytecodes, never inside a native call, and their own time is
taken out of the call's time. ``rescaled`` then turns the calls' times into
times on a nominal core, one that runs a tick in ``NOMINAL_TICK_S``:

    nominal = mean(call time - ticks in it) * mean(NOMINAL_TICK_S / tick time)

Ticks come at even wall-clock steps, so the second factor is the mean speed
of the core over the calls, relative to the nominal one.
The ticks are benchmark code: no change to ``src/`` can move them.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

PY_ITERS = 4_000
NP_ITERS = 75
NP_WIDTH = 40
# The tick time on a fast core of that host, so that the rescaled times read
# close to wall times measured there.
NOMINAL_TICK_S = {"python": 0.00053, "numpy": 0.0015}
STAGE_PERIOD_S = 0.1
PROBE_PERIOD_S = 0.02


class Ticker:
    """Ticks from a timer signal while the ``with`` block runs.

    ``ticks`` holds (start, seconds) per tick. The numpy part runs only when
    numpy was imported before the ticker was made; the set-up probe makes
    its ticker before the import it times, so its ticks are pure Python.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.ticks: list[tuple[float, float]] = []
        self._m = None
        if "numpy" in sys.modules:
            import numpy as np

            self._np = np
            self._m = np.random.default_rng(0).standard_normal((NP_WIDTH, NP_WIDTH))
        self.kind = "python" if self._m is None else "numpy"
        self._work()  # warm up
        self._previous = None

    def _work(self) -> None:
        acc, table = 0, {}
        for i in range(PY_ITERS):
            acc += (i * i) % 7
            table[i & 255] = acc
        if self._m is not None:
            m, np = self._m, self._np
            z = m
            for _ in range(NP_ITERS):
                z = np.tanh(m @ z * 0.01) + m

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._work()
        self.ticks.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def rescaled(spans: list[tuple[float, float]], ticks: list[tuple[float, float]],
             kind: str) -> tuple[float, float]:
    """(nominal, measured) mean time of the calls that ran over ``spans``,
    given the (start, seconds) ticks taken meanwhile; tick time is taken out
    of both. With no tick inside any span, nominal is the measured time."""
    inside = [[d for s, d in ticks if a <= s <= b] for a, b in spans]
    net = [b - a - sum(own) for (a, b), own in zip(spans, inside)]
    measured = statistics.fmean(net)
    pooled = [d for own in inside for d in own]
    if not pooled:
        return measured, measured
    speed = statistics.fmean(NOMINAL_TICK_S[kind] / d for d in pooled)
    return measured * speed, measured
