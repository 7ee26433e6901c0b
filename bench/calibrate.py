"""Host-speed reference kernel.

On a shared virtual machine the same job can take twice as long from one
half-minute to the next, and process CPU time swings with it (the processor
itself runs slower; it is not waiting).  No amount of repetition inside one
run averages that out, so every job is bracketed by this fixed kernel, run
in the same process: a mix of interpreter work, small numpy calls and
extended-precision array arithmetic like the package's own.  Job times are
divided by the kernel's slowdown against ``NOMINAL_S``, which makes them
seconds at the reference host speed.  The kernel shares no code with
``wirescat``, so a change to the package cannot move it; the raw times are
kept in every run record next to the normalised ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median kernel time on the reference host (2-core Intel Xeon VM, Python 3.11, numpy 2.4)
NOMINAL_S = 0.040

_SMALL = np.linspace(0.1, 1.0, 64)
_LARGE = np.linspace(0.1, 30.0, 20000).astype(np.longdouble)


def kernel_seconds() -> float:
    """Wall time of one fixed unit of reference work."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float((np.sin(_SMALL * i) + np.sqrt(_SMALL)).sum()) * 1e-9 + math.cos(i * 1e-3)
    for _ in range(4):
        acc += float(np.cos(_LARGE).sum())
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return elapsed


def reference_seconds(samples: int = 3) -> float:
    """Median of a few kernel timings after one untimed warm-up call."""
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(samples))
