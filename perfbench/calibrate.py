"""A fixed calibration kernel for normalising wall times to machine speed.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds (frequency and neighbour contention), which moves
a CPU-bound wall time as much as any code change would.  Timing this
kernel next to each measurement and dividing it out leaves the code's
own cost.  The kernel mixes interpreter work (arithmetic, dict stores)
with small numpy calls, the same blend the simulator's hot loops run,
and never changes: editing it invalidates every earlier figure.
"""

from __future__ import annotations

import time

import numpy as np

#: Wall seconds the kernel takes on the nominal machine; normalised
#: times are expressed as if measured there.
NOMINAL_S = 0.010

_ITERATIONS = 12_000


def kernel_s() -> float:
    """Wall seconds of one pass of the calibration kernel."""
    started = time.perf_counter()
    total = 0.0
    values = np.arange(10, dtype=float)
    table: dict[int, float] = {}
    for i in range(_ITERATIONS):
        total += (i * 0.5) % 7.0
        table[i & 255] = total
        if i % 20 == 0:
            values = np.cumsum(values) % 13.0
            np.searchsorted(values, 3.0)
    return time.perf_counter() - started


def speed_factor(before_s: float, after_s: float) -> float:
    """Nominal over measured kernel time around one measurement.

    Multiply a wall time by this factor to express it on the nominal
    machine: a machine running at half speed doubles both the
    measurement and the kernel, and the factor halves it back.
    """
    return NOMINAL_S / ((before_s + after_s) / 2.0)
