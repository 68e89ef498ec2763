"""A fixed calibration kernel that measures the machine's current speed.

On a shared virtual machine the speed of the same code drifts by up to
about 40 % over tens of seconds, in every process at once and with no
steal time reported, so wall time alone cannot tell a slower program from
a slower machine. The benchmark therefore times this kernel right before
and right after each measured interval, and scales the interval to the
speed at which the kernel takes ``REFERENCE_S`` ("reference seconds").

The kernel is a pure-Python integer loop with a working set of a few
bytes, so it tracks the processor's speed and not the state of the caches
that the measured call leaves behind. Each sample is the fastest of three
passes, which drops passes cut by a short burst of contention.
"""

from __future__ import annotations

from time import perf_counter

# About the kernel's median on the measuring machine (see DESIGN.md), so
# that reference seconds read close to wall seconds there.
REFERENCE_S = 0.017
PASSES = 3


def _pass() -> float:
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    if total != 299_999:
        raise RuntimeError(f"calibration kernel computed {total}")
    return perf_counter() - start


def kernel() -> float:
    """Seconds of the fastest of ``PASSES`` passes of the fixed loop."""
    return min(_pass() for _ in range(PASSES))


def at_reference(seconds: float, before_s: float, after_s: float) -> float:
    """``seconds`` measured between two kernel samples, scaled to reference speed."""
    return seconds * REFERENCE_S / ((before_s + after_s) / 2)
