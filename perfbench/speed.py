"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts: on a 2-vCPU Xeon VM,
identical solves took from 0.10 s to 0.19 s, and medians over 20-s windows
differed by 15-20%. A fixed pure-Python kernel, timed just before and just
after each solve, slows down with the solve. A solve's calibrated time is
its wall time scaled by NOMINAL_S over the mean of the two kernel times:
the time it would take at a speed where the kernel takes NOMINAL_S. On
those identical solves, calibration cut the spread of 20-s medians to
about 1%.

The kernel uses no package code, so a change to the package cannot change
the scale. It mixes the operations the solvers spend their time on: bit
counting over block masks, tuple iteration, small calls, dict updates and
Fraction arithmetic.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Kernel seconds that define one calibrated second: about the kernel's time
# on one core of a 2.1 GHz Xeon when the machine is quiet.
NOMINAL_S = 0.010

_BLOCKS = tuple((1 << (i % 60)) | (1 << ((i * 7) % 60)) for i in range(32))
_CAPS = tuple(1 + i % 3 for i in range(32))


def _kernel() -> int:
    acc = 0
    seen: dict[int, int] = {}
    for m in range(1000):
        mask = (m * 2654435761) & ((1 << 60) - 1)
        acc += sum(min((mask & b).bit_count(), c) for b, c in zip(_BLOCKS, _CAPS))
        seen[mask & 0xFFFF] = acc
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return acc + len(seen) + q.numerator % 7


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
