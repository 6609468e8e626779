"""A fixed pure-Python routine that measures how fast the machine runs now.

A machine shared with other tenants can run the same Python code at
speeds 1.5x apart from one minute to the next.  The benchmark runs the
routine just before and just after every set-up and every pass, and
reports the time in between at nominal speed: the speed at which the
routine takes NOMINAL_S.  On a 2-CPU VM, the pass times of ten runs
spread by 4-7% on this scale and by 10-17% unscaled.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.05
_ITERATIONS = 170_000


def reference_seconds() -> float:
    """Time one run of the routine: integer arithmetic, dict stores,
    tuple building and a sort, the operations the solvers spend on."""
    start = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    pairs = []
    for i in range(_ITERATIONS):
        acc += (i * 7) & 1023
        table[i & 4095] = acc
        if i & 7 == 0:
            pairs.append((acc & 255, i))
    pairs.sort()
    return perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """seconds, measured between reference runs taking before and after
    seconds, at nominal speed."""
    return seconds * 2 * NOMINAL_S / (before + after)
