"""Host calibration kernel for the benchmark.

The kernel is pure Python shaped like the program's hot loop -- heap
pushes and pops, slotted-object churn, generator ``send`` and dict
updates over a cache-resident working set -- and imports nothing from
``repro``, so its running time depends on the host alone.  A run times
kernel slices between its own workload slices (between DES cells,
between live replay segments, between set-ups) and reports each
time-derived metric both raw and scaled to the reference host (see
:meth:`Calibration.norm`).
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Kernel steps per slice: ~70 ms of CPU on the reference host in its
#: fast phase, ~150 ms in its slow one.
SLICE_STEPS = 45000

#: Generator processes the kernel keeps in its heap.  A small, cache-
#: resident working set like the simulator's: a kernel that streams
#: tens of MB slowed 2.3x between the host's phases where the
#: simulator slowed 2.1x, a cache-resident one 2.1x.
PROCESSES = 256


class _Event:
    __slots__ = ("time", "seq", "process")

    def __init__(self, time: float, seq: int, process):
        self.time = time
        self.seq = seq
        self.process = process

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _process(ident: int, totals: dict):
    state = ident
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        got = yield (state % 1000) / 1000.0 + 0.001
        totals[ident & 63] = totals.get(ident & 63, 0) + got


def kernel(steps: int) -> int:
    """A miniature event loop: pop the earliest event, ``send`` into
    its generator, push the next event as a fresh slotted object, and
    fold the reply into a dict.  Returns a checksum so the work cannot
    be skipped."""
    totals: dict = {}
    heap: list = []
    processes = [_process(i, totals) for i in range(PROCESSES)]
    for seq, process in enumerate(processes):
        heapq.heappush(heap, _Event(next(process), seq, process))
    seq = len(processes)
    for step in range(steps):
        event = heapq.heappop(heap)
        delay = event.process.send(step & 7)
        seq += 1
        heapq.heappush(heap, _Event(event.time + delay, seq, event.process))
    return len(totals) + seq


class Calibration:
    """Kernel slices interleaved with a run's own work."""

    def __init__(self, steps: int = SLICE_STEPS):
        self.steps = steps
        self.cpu_ms: List[float] = []
        self.wall_ms: List[float] = []

    def slice(self) -> None:
        """Time one kernel slice in process CPU and wall clock.

        The cyclic collector is off during the slice: its passes scan
        the whole process heap, so with it on the kernel would time
        the program's live objects rather than the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            wall = time.perf_counter()
            cpu = time.process_time()
            kernel(self.steps)
            self.cpu_ms.append((time.process_time() - cpu) * 1e3)
            self.wall_ms.append((time.perf_counter() - wall) * 1e3)
        finally:
            if enabled:
                gc.enable()

    @property
    def mean_cpu_ms(self) -> float:
        return statistics.fmean(self.cpu_ms)

    @property
    def mean_wall_ms(self) -> float:
        return statistics.fmean(self.wall_ms)

    def norm(self, reference_ms: float, clock: str = "cpu", elasticity: float = 1.0) -> float:
        """Factor turning a raw time into reference-host units:
        ``(reference / measured) ** elasticity``.

        ``measured`` is the mean over every slice of the run, which
        samples the host's phases in proportion to the run's time in
        each.  ``elasticity`` is how strongly the metric follows the
        kernel between host phases (1: in proportion; 0: not at all).
        """
        measured = self.mean_cpu_ms if clock == "cpu" else self.mean_wall_ms
        return (reference_ms / measured) ** elasticity
