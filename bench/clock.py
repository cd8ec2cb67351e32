"""A stopwatch that samples the host's speed between the steps it times.

On a shared machine the speed of one core swings by up to 40% for tens of
seconds at a time, and process CPU time swings with wall time. A fixed
pure-Python reference loop, run between the steps of a round, measures that
speed; dividing each step's time by the reference times around it counts the
work in reference-loop units, which stay put while the host's speed moves.
"""
from __future__ import annotations

import time

REFERENCE_ITERATIONS = 300_000


def reference_loop():
    """A fixed pure-Python loop whose time tracks the host's speed."""
    s = 0
    for i in range(REFERENCE_ITERATIONS):
        s += i * i % 7
    return s


def reference_seconds():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Stopwatch:
    """Times the stretches of a round's public calls. The workload calls
    ``lap()`` between steps and the round calls it once more at the end; each
    lap runs the reference loop outside the timed stretches. ``wall`` is the
    plain sum of the stretches; ``ref`` divides each stretch by the mean of
    the reference times just before and just after it, so it counts the work
    in reference-loop units and cancels the host's speed swings."""

    def __init__(self):
        self.wall = 0.0
        self.ref = 0.0
        self._before = reference_seconds()
        self._start = time.perf_counter()

    def lap(self):
        stretch = time.perf_counter() - self._start
        after = reference_seconds()
        self.wall += stretch
        self.ref += stretch / ((self._before + after) / 2)
        self._before = after
        self._start = time.perf_counter()
