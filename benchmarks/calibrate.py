"""How much slower than a fixed reference the machine runs right now.

On a shared host one core's speed drifts by up to a half over minutes
and by a quarter within ten seconds, while the program stays the same:
passes of the kernel below, timed every ten seconds for seven minutes,
took 38 to 63 ms. The runner times a pass just before and just after
every stage of a round and every set-up, and divides the stage's
seconds by the mean slowdown of the two, so the end-to-end times and
rates are seconds at the reference speed.

The kernel does a fixed amount of work shaped like lotnn's solver
steps: matrix products of a 256-point batch through 64-wide layers,
softplus activations and their derivatives, and the Python loop around
them. It uses numpy alone, so no change to lotnn changes its time.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((256, 64))
_WS = [_RNG.standard_normal((64, 64)) / 8.0 for _ in range(3)]
LOOPS = 20

# seconds of one kernel pass at the reference speed: about its median on
# a 2-core Intel Xeon VM with Python 3.11.7, numpy 2.4.6 and one
# OpenBLAS thread, while the host was lightly loaded
REFERENCE_S = 0.040


def kernel_seconds() -> float:
    """Seconds for one pass of the fixed work."""
    t = time.perf_counter()
    for _ in range(LOOPS):
        h = _X
        acts = []
        for W in _WS:
            h = np.logaddexp(0.0, h @ W)
            acts.append(h)
        g = np.ones_like(h)
        for W, a in zip(reversed(_WS), reversed(acts)):
            g = (g * (1.0 - np.exp(-a))) @ W.T
        float(g.sum())
    return time.perf_counter() - t

