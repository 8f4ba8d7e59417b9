"""A fixed CPU-bound routine that measures how fast the host runs Python.

The shared 2-vCPU host the benchmark was built on runs the same Python
code up to 2x slower for minutes at a time.  ``seconds()`` times this
routine, which uses nothing from slens, so a change to slens never moves
it; run.py times it around each unit of a pass and scales CPU-bound
workloads by it.  The work (greedy set cover over fixed sets) is the same
kind of set and dict churn the planner does.
"""

from __future__ import annotations

import random
import time

_rng = random.Random(12345)
_SETS = [frozenset(_rng.sample(range(300), _rng.randint(20, 60))) for _ in range(60)]

# What seconds() returns on the build host in its faster periods; scaled
# times are in seconds on such a host.
NOMINAL_S = 0.02


def _cover() -> int:
    covered: set[int] = set()
    left = list(_SETS)
    chosen = 0
    while left:
        best = max(left, key=lambda s: (len(s - covered), -min(s)))
        if not best - covered:
            break
        covered |= best
        left.remove(best)
        chosen += 1
    return chosen


def seconds() -> float:
    """Wall time of eight set covers (about 20 ms on the build host)."""
    t0 = time.perf_counter()
    for _ in range(8):
        _cover()
    return time.perf_counter() - t0
