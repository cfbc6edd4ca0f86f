"""Host-speed reference: a fixed loop timed next to every measurement.

On a shared host the speed of this process's CPU drifts by a quarter or more
over minutes, with CPU time tracking wall time, so the drift is the core
running slower rather than this process waiting.  Timings of set-up and of
each pass are therefore scaled by ``NOMINAL_S / t``, where ``t`` is the mean
wall time of this loop just before and just after the measurement.  A
*reference second* is a wall second on a host where the loop takes
``NOMINAL_S``; on such a host the two are equal.  The loop mimics the
program's hot path (small matvecs, elementwise numpy, closures and list
churn), and it never calls the program, so no change to the program can
change it.
"""

import time

import numpy as np

#: wall seconds of one reference loop on the nominal host
NOMINAL_S = 0.15

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(64, 64))
_V0 = _RNG.normal(size=64)


def reference_seconds(iterations: int = 3000) -> float:
    """Wall seconds of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    nodes = []
    v = _V0
    for i in range(iterations):
        u = _M @ v
        v = np.tanh(u) * 0.5 + v * 0.5
        nodes.append((i, lambda g, u=u: g * u))
        if len(nodes) > 100:
            nodes = [node for node in nodes if node[0] % 2]
    return time.perf_counter() - t0


def scales(refs) -> list:
    """Scale to reference seconds of each measurement made between
    ``refs[i]`` and ``refs[i + 1]``."""
    return [NOMINAL_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
