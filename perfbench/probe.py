"""Host speed probe.

On a shared host the same pass can run 1.5x slower for tens of seconds
at a time, with CPU time tracking wall time: the host, not the program,
changed speed. A fixed piece of numpy and Python work timed right before
and after a measured stretch tells how fast the host was during it, and
``scaled`` rescales the stretch to the speed at which the probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on a 2-core x86-64 host (Python 3.11.7, numpy 2.4.6,
# scipy-openblas, one BLAS thread) in its faster phases.
REFERENCE_S = 0.15

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_H = _A + _A.conj().T
_T = _RNG.standard_normal((2, 2, 2, 8)) + 0j


def speed_probe() -> float:
    """Seconds for a fixed mix of small numpy calls and Python loops."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        acc += np.kron(_A, _A[:4, :4])[0, 0].real
        acc += np.linalg.eigh(_H)[0][0]
        acc += np.tensordot(_A[:2, :2], _T, axes=([1], [1])).real.sum()
        acc += sum(float(j) for j in range(300))
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
