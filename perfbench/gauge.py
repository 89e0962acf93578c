"""A fixed unit of work that gauges the machine's speed during a run.

The benchmark host is shared: its speed swings by up to 1.8x in phases of
under a second, and the share of slow phases drifts over minutes, so the
mean time of the same operation moves by up to 60% from one 25 s run to the
next.  ``unit()`` is the mix the descent spends its time on (small numpy
calls on event x module arrays plus interpreted loops) and never changes
with the program.  Runs of it interleaved with the operations see the same
phases, so an operation's time over the unit's time in the same run follows
the program and not the machine.  Work on arrays far larger than the caches
(the sparse path of ``wide``) slows less in those phases than the unit does,
so there the scaling over-corrects and removes less of the spread.  Its arrays are small
so that it adds nothing to the measured peak memory.
"""

import time

import numpy as np

# A fixed nominal time for one unit, near its run means (11.5-16.5 ms) on the
# 2-vCPU x86-64 host the benchmark was tuned on.  Times reported "at
# reference speed" are scaled by REF_S / the run's mean unit time, so they
# read about as wall seconds on that host.
REF_S = 0.0125

_rng = np.random.default_rng(0)
_ROWS = _rng.random((1000, 20))
_PROBS = _rng.random((4, 20, 5))


def unit() -> float:
    """Run the unit once; returns its wall time."""
    start = time.perf_counter()
    total = 0
    for _ in range(10):
        keep = np.cumprod(_ROWS * 0.5 + 0.5, axis=1)
        total += int(np.einsum("um,bms->bs", keep, _PROBS).sum())
        for i in range(300):
            total += i * i % 7
    return time.perf_counter() - start
