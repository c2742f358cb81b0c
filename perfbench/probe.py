"""Machine-speed probe: fixed numpy/scipy work timed next to the ops.

On a shared 2-core sandbox the same op's wall time drifts by up to 40%
over a minute as other tenants load the host, and the probe's time moves
with it; their ratio moved by about 5% in the same series.  The benchmark
therefore scales its end-to-end times by ``PROBE_REF_S / probe median``,
which reports them in seconds of a machine on which the probe takes
``PROBE_REF_S``.  The probe mixes the library's three hot-path shapes: a
long real FFT round trip (half-line convolution), many short ones with
small-array glue (the finite-volume step) and a large elementwise arctan
(subsolution).  It calls nothing from ``nlburgers``, so no change to the
library can move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import irfft, rfft

#: the probe's median time on the 2-core sandbox where the benchmark was
#: defined (Intel Xeon, 2.1 GHz, 2 vCPUs, one BLAS thread)
PROBE_REF_S = 0.025


class Probe:
    """Callable returning the wall time of one fixed unit of work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._long = rng.standard_normal(98_304)
        self._short = rng.standard_normal(12_288)
        self._block = rng.standard_normal((64, 8193))
        self()  # first call builds the FFT plans

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            irfft(rfft(self._long) * 0.5, self._long.size)
        for _ in range(50):
            short = irfft(rfft(self._short) * 0.5, self._short.size)
            np.concatenate([[0.0], short, [0.0]])
        float(np.arctan(self._block).sum())
        return time.perf_counter() - t0
