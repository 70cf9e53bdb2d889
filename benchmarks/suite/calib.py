"""Host-speed calibration loop for the benchmark suite.

The suite runs on shared hosts whose speed drifts by tens of percent
within minutes (other tenants, frequency scaling). Every timed iteration
is bracketed by this loop, and its wall time is rescaled to what it would
have been on the reference host::

    normalized = wall * CALIB_NOMINAL_S / min(calib_before, calib_after)

The loop is pure Python with the simulator's instruction mix -- heap
pushes/pops of tuples, generator resumption and dict churn -- plus one
random read per step from a 64 MiB buffer. The reads matter: the
workloads' heaps (30-370 MiB) live in the last-level cache and DRAM that
other tenants share, and a loop confined to the core's private caches
missed most of the slowdowns they suffered. The buffer is unmapped
before the loop returns, so it never adds to a later iteration's
resident set. The loop must never import ``repro``: a change to the
program under test must not be able to move the yardstick.
"""

import heapq
import mmap
import time

#: median :func:`calibrate` wall seconds on the reference host (2-vCPU
#: KVM guest, x86-64, CPython 3.11); normalized times are in these
#: reference seconds. Changing it rescales every normalized metric, so it
#: is fixed for the life of the benchmark.
CALIB_NOMINAL_S = 0.0727

#: loop trip count; sized so one calibration takes about CALIB_NOMINAL_S
CALIB_STEPS = 80_000

BUFFER_BYTES = 64 << 20
PAGE_BYTES = 4096


def _offsets(n, mask):
    state = 12345
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state & mask


def _kernel(steps):
    buf = mmap.mmap(-1, BUFFER_BYTES)
    view = memoryview(buf)
    try:
        for offset in range(0, BUFFER_BYTES, PAGE_BYTES):
            view[offset] = 1  # fault every page in
        heap = []
        table = {}
        for i, offset in enumerate(_offsets(steps, BUFFER_BYTES - 1)):
            slot = (offset & 1023) + view[offset]
            table[slot] = table.get(slot, 0) + 1
            if i & 63 == 0:
                heapq.heappush(heap, (offset, i))
                if len(heap) > 256:
                    heapq.heappop(heap)
        return len(heap), len(table)
    finally:
        view.release()
        buf.close()


def calibrate() -> float:
    """Run the calibration loop once; return its wall seconds."""
    t0 = time.perf_counter()
    _kernel(CALIB_STEPS)
    return time.perf_counter() - t0


def normalize(wall: float, calib_before: float, calib_after: float) -> float:
    """``wall`` rescaled to reference-host seconds.

    Uses the faster of the two calibrations around the interval:
    interference only ever slows a calibration down, and a short burst
    caught by one of them says little about the seconds in between.
    """
    return wall * CALIB_NOMINAL_S / min(calib_before, calib_after)
