"""Host-speed probe: a fixed piece of numpy work that does not touch spartan.

The benchmark shares its host with other tenants. While this process keeps its
CPU (cpu/wall about 0.99, no steal), neighbours slow it by 10-60 % in phases
of one second to a minute, and a whole run can fall inside one phase. The
probe is timed before the first call of a timed phase and after every call,
and each call's time is scaled by `REFERENCE_S` over the mean of the probes
on either side of it. The scaled time is what the call would take on a host
where the probe takes `REFERENCE_S`: the host's speed cancels, the program's
does not, because the probe runs none of the program's code.

The work mixes what the workloads do: float64 and float32 matrix products,
elementwise transcendentals, row gathers and scatter-adds, a sort, and a
Python-level loop.
"""

from __future__ import annotations

import time

import numpy as np

# What the probe takes on a quiet 2-core Xeon host with one BLAS thread.
REFERENCE_S = 0.008

_rng = np.random.default_rng(0)
_A64 = _rng.standard_normal((256, 256))
_B64 = _rng.standard_normal((256, 512))
_A32 = _A64.astype(np.float32)
_B32 = _B64.astype(np.float32)
_VEC = _rng.standard_normal(200_000)
_IDX = _rng.integers(0, _VEC.size, 50_000)


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    for _ in range(2):
        c64 = _A64 @ _B64
        np.tanh(c64, out=c64)
        c32 = _A32 @ _B32
        np.exp(-np.abs(c32), out=c32)
        gathered = _VEC[_IDX]
        acc = np.zeros_like(_VEC)
        np.add.at(acc, _IDX[:5000], gathered[:5000])
        np.sort(gathered)
    total = 0
    for i in range(10_000):
        total += i
    return time.perf_counter() - t0


probe()  # the first call pays for page faults and allocator growth
