"""A machine-speed reference for the end-to-end timings.

On a shared machine the same batch can take 30% longer from one half-minute
to the next, with no other process of ours running. To cancel that drift, a
small fixed loop (a clicked-prefix scan over 3000 entries, the kind of work
the oracle does) is timed next to the work being measured, on the same
thread. Dividing the work's time by the loop's mean duration gives its cost
in reference loops, which stays put while the machine speeds up and slows
down. The loop's entries are generated here, so no change to the program
can change the loop, and it allocates no container, so it never triggers
the program's garbage collector.
"""

from __future__ import annotations

import random
import signal
import string
from time import perf_counter

INTERVAL_S = 0.2
PREFIXES = ("ab", "co", "de", "in")

# The loop's median duration on the machine the benchmark was written on
# (2-core Xeon, Python 3.11); converts reference loops back to seconds.
LOOP_S = 0.0006


class _Entry:
    def __init__(self, query: str, clicked: bool):
        self.query = query
        self.clicked = clicked


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self.entries = [
            _Entry("".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9))), i % 3 == 0)
            for i in range(3000)
        ]
        self.samples = []

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        hits = 0
        for prefix in PREFIXES:
            for entry in self.entries:
                if entry.clicked and entry.query.startswith(prefix):
                    hits += 1
        self.samples.append(perf_counter() - start)

    def timed(self, fn):
        """Call ``fn`` while a timer takes a sample every ``INTERVAL_S``.
        Returns ``(busy_s, ref_s, result)``: the call's wall time minus the
        samples taken during it, and the mean sample duration (one sample is
        taken just before)."""
        self.sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            result = fn()
            wall = perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        taken = self.samples[first - 1:]
        return wall - sum(taken[1:]), sum(taken) / len(taken), result
