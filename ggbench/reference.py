"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the core the benchmark gets alternates between a fast and
a slow state, a few seconds at a time; in the slow state every op takes
about 1.4 times as long.  The share of a run spent in the fast state
changes from run to run (between 12% and 31% in six 20 s runs on one
2-CPU machine), and that alone moved the median op time by 10-17%.

So the benchmark times this kernel between ops and scales each op's time
by ``REFERENCE_S`` over the kernel's time around that op.  The kernel does
the three kinds of work the ops do, in about equal shares of its time:
interpreted Python arithmetic, a chain of numpy calls on a short array
(call overhead), and complex exponentials over a longer array (vector
arithmetic).  It does not touch ggsys, so a change to the program cannot
change it.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one ``reference_work()`` call on an Intel Xeon (2 vCPUs,
# Python 3.11, numpy 2.4).  Scaled times are seconds on a machine where the
# kernel takes exactly this long.
REFERENCE_S = 0.0055

_SHORT = np.arange(16.0)
_LONG = np.linspace(0.0, 10.0, 40_000)


def reference_work() -> float:
    acc = 0
    for i in range(18_000):
        acc += (i * i) % 7
    v = _SHORT
    for _ in range(600):
        v = np.sqrt(v * v + 1.0) - 1.0
    z = np.exp(1j * _LONG)
    return acc + float(v[0]) + float(z.sum().real)


def reference_time() -> float:
    """Wall time of one reference kernel call."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def scales(refs) -> list[float]:
    """Scale for op i, given the kernel times refs[i] before and refs[i+1]
    after it: ``REFERENCE_S`` over their mean."""
    return [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
