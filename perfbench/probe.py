"""Host-speed probe: fixed kernels that share no code with zenocavity.

The reference machine's own speed drifts: the same request took up to
1.7 times as long in some phases as in others, for seconds to minutes at
a time, with CPU time moving with wall time. Raw wall times then spread
across runs by more than any useful bound. The benchmark therefore runs
this probe after every request and divides the request's wall time by
the probe's slowdown factor, its wall time over PROBE_REF_S. Times are
thus reported in seconds at the reference speed. A change to the program
moves them as it moves wall time; a change of host speed moves the probe
as well and mostly drops out.

The five kernels cover the primitives the workloads lean on, at about
2-3 ms each: a small dense eigh (kick centres), a complex matrix product
(raster rows), elementwise numpy on 40 x 40 arrays (damping terms), a
pure Python loop (interpreter overhead), and small matrix-vector products
(engine steps).
"""

from __future__ import annotations

import time

import numpy as np

#: typical wall time of one probe on the reference machine (2 shared
#: cores, one BLAS thread), so that normalised times stay near wall times
PROBE_REF_S = 0.012


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((80, 80))
        self.sym = sym + sym.T
        self.left = rng.standard_normal((120, 300)) + 1j * rng.standard_normal((120, 300))
        self.right = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        self.small = rng.standard_normal((40, 40)) + 0j
        self.mat = rng.standard_normal((48, 48)) + 0j
        self.vec = np.ones(48, dtype=complex)

    def factor(self) -> float:
        """Slowdown of the host against the reference: probe time / PROBE_REF_S."""
        t0 = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(self.sym)
        self.left @ self.right
        x = self.small
        for _ in range(100):
            x = 0.5 * x + self.small * np.sqrt(np.abs(self.small))
        acc = 0
        for k in range(20000):
            acc += k * k
        v = self.vec
        for _ in range(300):
            v = self.mat @ v
            v = v / np.linalg.norm(v)
        return (time.perf_counter() - t0) / PROBE_REF_S
