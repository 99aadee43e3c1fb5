"""A fixed reference kernel that measures how fast this CPU runs right now.

The benchmark's timings are divided by the kernel's time on the same CPU
around each invocation, because the shared host's speed drifts by tens of
percent within minutes and moves every timing with it.  The kernel is
standard-library Python doing what the measured program spends its time
on, sparse row reduction over ``Fraction`` entries in dicts, but it shares
no code with ``linemod``, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from random import Random

SIZE = 20
CALL_S_MIN = 0.25   # shortest stretch of kernel calls per measurement


def _matrix() -> list:
    rng = Random(7)
    return [{j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
             for j in range(SIZE) if rng.random() < 0.57}
            for _ in range(SIZE + 6)]


ROWS = _matrix()


def kernel() -> int:
    """Reduce the fixed rows to echelon form; returns the rank."""
    pivots = {}
    for row in ROWS:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {k: v / lead for k, v in row.items()}
                break
            lead = row[col]
            for k, v in pivots[col].items():
                x = row.get(k, 0) - lead * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


RANK = kernel()


def reference_s(stretch_s: float = CALL_S_MIN) -> float:
    """Median time of one kernel call, over calls made for at least
    ``stretch_s`` seconds."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < stretch_s:
        t0 = time.perf_counter()
        rank = kernel()
        times.append(time.perf_counter() - t0)
        if rank != RANK:
            raise RuntimeError(f"reference kernel gave rank {rank}, expected {RANK}")
    return statistics.median(times)
