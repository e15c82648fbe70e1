"""Host-speed calibration for the benchmark's timed regions.

The benchmark runs on small shared hosts whose speed drifts by tens of
percent within seconds.  Every timed region is therefore bracketed by a
fixed pure-Python kernel, and its wall time is scaled by how fast the
kernel ran around it::

    calibrated = raw * (KERNEL_NOMINAL_S / kernel_measured)

``kernel_measured`` is the mean of the kernel run just before and just
after the region.  Adjacent regions share a kernel run, so a sequence of
``n`` regions costs ``n + 1`` kernel runs.

This module imports nothing from ``repro``: the kernel must measure the
host, not the code under test, so no change to the simulator can move it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

#: Nominal kernel time in seconds.  A constant, so calibrated seconds are
#: comparable across runs and commits; it approximates the kernel's time
#: on an idle 2-vCPU x86-64 host under CPython 3.11.
KERNEL_NOMINAL_S = 0.100

#: Loop trips of one kernel run.
KERNEL_ROUNDS = 45_000

T = TypeVar("T")


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = None


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """A fixed mix of interpreter work; returns a checksum.

    Integer arithmetic, list indexing, dict updates, attribute access on
    slotted objects and small function calls -- the operations the
    simulator's hot loops are made of -- over a bounded working set that
    it builds once, so it touches no memory the run keeps.
    """
    cells = [_Cell(i) for i in range(64)]
    for i in range(63):
        cells[i].next = cells[i + 1]
    table = {}
    acc = 0
    for r in range(rounds):
        node = cells[r & 63]
        hops = 0
        while node is not None and hops < 8:
            acc = (acc * 31 + node.value) & 0xFFFFFFFF
            node = node.next
            hops += 1
        key = acc & 255
        table[key] = table.get(key, 0) + 1
        acc ^= max(acc & 7, acc >> 3 & 7, acc >> 6 & 7) + len(table)
    return acc


def run_kernel() -> float:
    """Wall seconds of one kernel run, with the cyclic collector off.

    A collection triggered inside the kernel would scan whatever the
    timed region left on the heap and charge it to the host.  The caller
    collects before the kernel runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(raw_s: float, kernel_s: float,
              nominal_s: float = KERNEL_NOMINAL_S) -> float:
    """Raw seconds scaled to the nominal host speed."""
    if raw_s < 0 or kernel_s <= 0 or nominal_s <= 0:
        raise ValueError(f"bad calibration input raw={raw_s} "
                         f"kernel={kernel_s} nominal={nominal_s}")
    return raw_s * (nominal_s / kernel_s)


@dataclass(frozen=True)
class Timing:
    """One timed region: raw wall time, bracketing kernel, calibrated."""

    raw_s: float
    kernel_s: float
    calibrated_s: float


class Bracket:
    """Times regions between kernel runs, sharing kernels between them.

    ``clock`` and ``kernel_runner`` are injectable so tests can check the
    arithmetic with exact numbers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 kernel_runner: Callable[[], float] = run_kernel,
                 nominal_s: float = KERNEL_NOMINAL_S) -> None:
        self._clock = clock
        self._kernel = kernel_runner
        self.nominal_s = nominal_s
        self.kernel_times = []
        self._before = self._run_kernel()

    def _run_kernel(self) -> float:
        seconds = self._kernel()
        self.kernel_times.append(seconds)
        return seconds

    def time(self, fn: Callable[[], T]) -> Tuple[T, Timing]:
        """Run ``fn`` between kernel runs; returns its result and timing.

        The heap is collected before ``fn`` starts, so each region pays
        for its own garbage only.
        """
        gc.collect()
        start = self._clock()
        result = fn()
        raw = self._clock() - start
        after = self._run_kernel()
        kernel_s = (self._before + after) / 2.0
        self._before = after
        return result, Timing(raw, kernel_s,
                              calibrate(raw, kernel_s, self.nominal_s))
