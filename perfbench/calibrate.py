"""A fixed piece of work that measures how fast the machine runs right now.

On the shared 2-core VM this benchmark was written on, the speed of the
same code drifts by tens of percent within minutes, and CPU time drifts with
wall time: one `recover_anchor_Q` call took 0.41 s to 0.73 s within one
process, and the median round of a 30 s run moved by half and more between
runs minutes apart. So every end-to-end time is reported in reference
seconds: the measured wall time times REFERENCE_S over the time this kernel
took next to it. Both slow down together, so the ratio keeps what the
program changed and drops most of what the machine did.

The kernel is the benchmark's own code, fixed in size, and mixes what the
admixid commands spend their time on: interpreter loops, many numpy calls
on small arrays, small NNLS solves and small SVDs. It never calls admixid.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy.optimize import nnls

# about the kernel's time on a quiet moment of the machine the benchmark was
# written on (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread)
REFERENCE_S = 0.1

_RNG = np.random.default_rng(0)
_A = _RNG.random((40, 6))
_B = _RNG.random(40)
_V = _RNG.random((200, 8))


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    gc.collect()
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i
    for i in range(6000):
        acc += float(np.max(np.abs(_V[i % 200] - _V[(i + 7) % 200])))
    for _ in range(2500):
        nnls(_A, _B)
    for _ in range(30):
        np.linalg.svd(_V)
    return time.perf_counter() - t0
