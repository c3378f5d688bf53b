"""Machine-speed reference for a shared, noisy host.

On a host shared with other tenants the speed of a core drifts by tens of
percent over tens of seconds, so raw times of the same code differ more
from one run to the next than the changes worth detecting. A fixed
pure-Python kernel, timed next to the measured work, tracks that speed:
each time the benchmark reports is multiplied by NOMINAL_S over the kernel
time measured beside it, which states it at the core speed at which the
kernel takes NOMINAL_S. The kernel does not touch the library, so a change
to the library moves the scaled times as it moves the raw ones.
"""

from time import perf_counter

# Kernel time on an uncontended core of the machine the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11); fixes the unit only.
NOMINAL_S = 0.007
# Take a reference sample between ops once this much wall time has passed.
EVERY_S = 0.5


def kernel() -> int:
    """Integer bit operations, set lookups and small tuples, as the library does."""
    seen = set()
    total = 0
    for i in range(20000):
        a = (i * 2654435761) & 0x7FFF
        b = (a ^ (a >> 3)) & 0x7FFF
        common = (a & b).bit_count()
        if common == 4:
            seen.add((a, b))
        total += common if (a | b) in seen else 1
    return total


def reference_s() -> float:
    """Fastest of three kernel runs, so an interruption does not count as slowness."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Scale for work done between two reference samples."""
    return NOMINAL_S / ((before + after) / 2)
