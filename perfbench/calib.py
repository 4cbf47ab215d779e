"""The calibration kernel: the unit every perfbench timing is divided by.

FROZEN.  Never edit ``kernel`` (or the constants it reads) after the PR
that added it: every ``*_cu`` number in every result file is a ratio to
this loop's run time, so a change here silently rescales the whole
trajectory.  A better kernel is a new benchmark with a new baseline.

Why it exists: on the shared 2-core box the raw wall time of identical
runs drifts by 7-12 % (clock frequency, the neighbour's load), while the
ratio to a pure-Python loop timed right next to the work holds within
~1.5 %.  The loop mixes the operations the system itself is made of —
dict get/set, list build, sort, integer arithmetic and attribute-free
iteration — so a slower or faster box moves both sides alike.
"""

from time import perf_counter

_N = 20000
_MASK = 1023


def kernel():
    """Run the fixed loop once; returns its wall time in seconds."""
    start = perf_counter()
    table = {}
    for i in range(_N):
        key = i & _MASK
        table[key] = table.get(key, 0) + i
    values = [(i * 7919) % 10007 for i in range(_N)]
    values.sort()
    total = 0
    for value in values:
        total += value
    if total + len(table) < 0:  # keeps the results live; never true
        raise AssertionError
    return perf_counter() - start
