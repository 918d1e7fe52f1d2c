"""Machine-speed calibration for the benchmark's timings.

On a shared host the same job can run 1.6x slower from one second to the
next, when a neighbour loads the physical core, and process CPU time slows
with wall time.  The benchmark therefore times this fixed kernel next to
every job and reports latencies in reference-speed seconds:

    latency * REF_S / kernel time around the job

The kernel is the per-step work of a small-d run: a 4x4 matvec, a
finiteness check and a norm, in a Python loop.  It uses numpy only, never
saddleflow, so no change to the library can move it.

Set-up time is mostly interpreter start and imports, which a neighbour slows
less than this Python loop.  So a fresh interpreter that only imports numpy,
``REFERENCE_START``, is timed before every set-up start instead, and set-up
times are scaled by ``REF_START_S`` over its wall time.
"""
from time import perf_counter

import numpy as np

STEPS = 150
#: Kernel time that defines one reference-speed second.  It is the kernel's
#: usual time on the machine of the baseline (Intel Xeon, 2 vCPUs,
#: Python 3.11.7, numpy 2.4.6) when a neighbour loads its core.
REF_S = 2.0e-3
#: Arguments to the interpreter for the set-up reference, and its usual wall
#: time on the machine of the baseline.
REFERENCE_START = ("-c", "import numpy")
REF_START_S = 0.2

_A = np.array([[0.0, 0.5, 0.1, 0.0],
               [-0.5, 0.0, 0.0, 0.2],
               [-0.1, 0.0, 0.0, 0.3],
               [0.0, -0.2, -0.3, 0.0]])


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    z = np.ones(4)
    t0 = perf_counter()
    for _ in range(STEPS):
        v = _A @ z
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("calibration kernel diverged")
        z = z - 1e-3 * v
        float(np.linalg.norm(z))
    return perf_counter() - t0


def normalize(latencies, kernels):
    """Reference-speed latencies: job i is scaled by the mean of the kernel
    times just before and just after it (``len(kernels) == len(latencies) + 1``)."""
    return [lat * 2.0 * REF_S / (before + after)
            for lat, before, after in zip(latencies, kernels, kernels[1:])]
