"""A fixed reference task, timed beside the program's operations.

The host's speed swings by up to 2x over seconds to minutes, from
contention that CPU time does not show. A run of 30 s sits inside one
such phase, so wall-clock figures of the same code differ between runs
by more than any useful bound. The benchmark therefore times this task
right before each timed operation and reports the operations' time in
units of it: the swing moves both alike and cancels in the ratio.

The task uses numpy and the standard library only, never oucv, so no
change to the program moves it. Its four parts stand for the kinds of
work the workloads do: numpy calls on tiny arrays (per-call overhead),
an interpreter loop, arithmetic on arrays of 10^5 floats, and formatting
and parsing of CSV text. One pass takes 2-3 ms on the machine the README
names.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 50)
_LARGE = np.linspace(0.0, 1.0, 100_000)
# written in place, so that a pass does not map fresh pages for 10^5 floats
_BUFFERS = (np.empty_like(_LARGE), np.empty_like(_LARGE))
_VALUES = [float(v) for v in np.linspace(0.1, 9.9, 400)]


def _small_numpy() -> None:
    a = _SMALL
    for _ in range(60):
        a = a + 0.0 * float(np.exp(-3.0 * a).sum())


def _interpreter() -> None:
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) % 7.0


def _large_numpy() -> None:
    a, b = _BUFFERS
    np.multiply(_LARGE, -3.0, out=a)
    np.exp(a, out=a)
    np.multiply(a, a, out=b)
    np.cumsum(b, out=a)


def _text() -> None:
    lines = "\n".join(f"{i},{v!r}" for i, v in enumerate(_VALUES))
    sum(float(line.split(",")[1]) for line in lines.splitlines())


def seconds() -> float:
    """Wall time of one pass of the task."""
    start = time.perf_counter()
    _small_numpy()
    _interpreter()
    _large_numpy()
    _text()
    return time.perf_counter() - start
