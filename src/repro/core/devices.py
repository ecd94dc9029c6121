"""The host-agnostic device core: one disk model, any clock.

The paper's results hinge on its device model -- Earliest-Deadline
disk queues with an elevator tie-break among equal priorities, a small
(256-KByte) per-disk prefetch cache, sequential-stream tracking that
makes scan continuations pay pure transfer time, and an LRU data cache
over the buffer pool's unreserved pages.  Two hosts need that model:
the discrete-event simulator (:mod:`repro.rtdbs.disk`,
:mod:`repro.rtdbs.buffer_manager`) and the live serving layer
(:mod:`repro.serve.dataplane`).  This module holds the *pure* logic
they share -- no simulator clock, no event loop, no wall time:

* :class:`RunLRU` -- a page-exact LRU stored as runs of consecutive
  pages in recency order, behind both caches below.  Caches see block
  transfers (6-page blocks, mostly continuing a scan), so a run-granular
  store turns the common install into one integer update (the newest
  run grows) or one append plus one trim at the oldest run, where a
  per-page store paid a dict operation per page;
* :class:`PrefetchCache` -- the per-disk LRU page cache (reads fully
  covered by recently transferred pages cost no arm time);
* :class:`LRUDataCache` -- the buffer pool's LRU region over packed
  ``disk << 48 | page`` keys, with a dynamically adjustable capacity;
* :class:`DeviceCore` -- one disk's physical state (head position,
  sweep direction, bounded sequential-stream tails, prefetch cache)
  plus the ``Seek + RotateDelay + Transfer`` pricing of Section 4.2
  and the ED-queue selection with the exact elevator tie-break.

Hosts wrap a :class:`DeviceCore` in a thin time-stamped adapter: the
DES adapter schedules completion events on the simulator clock, the
live adapter hands arm occupancy to asyncio tasks -- but the decision
of *which* request runs next, *what* it costs, and *which* pages are
cached afterwards is taken here, identically, once.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

READ = "read"
WRITE = "write"


class RunLRU:
    """Page-exact LRU over integer page keys, stored as runs.

    The cache holds the same pages in the same recency order as a
    per-page LRU (one dict entry per page, refresh = delete and
    reinsert, evict from the front) -- but as *runs*: stretches of
    consecutive keys that became most recent together, so that within
    a run recency rises with the key.  A block transfer installs one
    run; a transfer that starts where the newest run ends (a scan
    continuing) only moves that run's end.  Each run is a mutable
    ``[lo, hi)`` list, held by reference in two orders:

    * ``_runs`` -- recency order, oldest first: eviction trims pages
      off the front of the oldest run, a refresh or an install appends
      at the back;
    * ``_by_key`` -- key order (runs never overlap), with ``_ends``,
      the runs' ``hi`` values, beside it for :func:`bisect.bisect_right`
      to find the first run a range touches.

    Trimming the oldest run moves its ``lo``, which neither order
    records, so the index changes only when a run appears, disappears,
    is cut, or is extended (its slot is known then).  Ranges that
    overlap cached runs -- partially, strictly inside one, or spanning
    several -- cut the overlap out of those runs first, so every hit,
    miss and victim is the one the per-page LRU produces.  The lookup
    is a bisection at every capacity: the same code serves the 32-page
    prefetch cache and a buffer pool of thousands of pages.

    Ranges are non-empty (``npages >= 1``; every disk access has at
    least one page).  ``hits`` and ``misses`` are counted by the
    adapters below, which decide what a probe or an install means for
    their host.
    """

    __slots__ = ("_capacity", "_size", "_runs", "_by_key", "_ends", "hits", "misses")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self._capacity = capacity
        self._size = 0
        self._runs: List[list] = []
        self._by_key: List[list] = []
        self._ends: List[int] = []
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Current capacity in pages; lowering it evicts LRU pages."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative capacity: {value}")
        self._capacity = value
        if self._size > value:
            self._trim()

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        """Cached keys, least recently used first."""
        for lo, hi in self._runs:
            yield from range(lo, hi)

    def invalidate_all(self) -> None:
        """Drop every cached page."""
        self._runs.clear()
        self._by_key.clear()
        self._ends.clear()
        self._size = 0

    def _covers(self, lo: int, npages: int) -> bool:
        """True when every key of ``[lo, lo + npages)`` is cached."""
        ends = self._ends
        i = bisect_right(ends, lo)
        if i == len(ends):
            return False
        by_key = self._by_key
        run = by_key[i]
        if run[0] > lo:
            return False
        hi = run[1]
        end = lo + npages
        if hi >= end:
            return True
        # The range runs past this run: key-adjacent runs may cover it.
        for run in islice(by_key, i + 1, None):
            if run[0] != hi:
                return False
            hi = run[1]
            if hi >= end:
                return True
        return False

    def _place(self, lo: int, npages: int) -> None:
        """Make ``[lo, lo + npages)`` the most recent keys, then evict.

        Cached keys of the range leave their runs (a run the range
        falls strictly inside splits in two, adjacent in recency); the
        range becomes the newest run, or extends the newest run when
        it starts where that run ends; the oldest pages beyond the
        capacity are trimmed.
        """
        hi = lo + npages
        by_key = self._by_key
        ends = self._ends
        runs = self._runs
        size = self._size + npages
        i = bisect_right(ends, lo)
        n = len(ends)
        while i < n:  # cut the range out of every run it overlaps
            run = by_key[i]
            r_lo, r_hi = run
            if r_lo >= hi:
                break
            if r_lo < lo:
                run[1] = ends[i] = lo
                if r_hi > hi:
                    tail = [hi, r_hi]
                    by_key.insert(i + 1, tail)
                    ends.insert(i + 1, r_hi)
                    runs.insert(runs.index(run) + 1, tail)
                    size -= npages
                    i += 1
                    break
                size -= r_hi - lo
                i += 1
            elif r_hi > hi:
                run[0] = hi
                size -= hi - r_lo
                break
            else:
                del by_key[i]
                del ends[i]
                n -= 1
                runs.remove(run)
                size -= r_hi - r_lo
        if runs and runs[-1][1] == lo:
            runs[-1][1] = ends[i - 1] = hi
        else:
            run = [lo, hi]
            runs.append(run)
            by_key.insert(i, run)
            ends.insert(i, hi)
        excess = size - self._capacity
        if excess > 0:
            oldest = runs[0]
            if oldest[1] - oldest[0] > excess:  # the common trim
                oldest[0] += excess
                size -= excess
            else:
                self._size = size
                self._trim()
                return
        self._size = size

    def _trim(self) -> None:
        """Evict the oldest pages beyond the capacity."""
        excess = self._size - self._capacity
        runs = self._runs
        by_key = self._by_key
        ends = self._ends
        while excess > 0:
            oldest = runs[0]
            length = oldest[1] - oldest[0]
            if length > excess:
                oldest[0] += excess
                break
            del runs[0]
            k = bisect_left(ends, oldest[1])
            del by_key[k]
            del ends[k]
            excess -= length
        self._size = self._capacity


class PrefetchCache(RunLRU):
    """LRU cache of recently transferred pages (one per disk).

    ``touch`` counts a hit, ``insert`` (a transfer) counts a miss.
    """

    __slots__ = ()

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("cache capacity must be positive")
        super().__init__(capacity_pages)

    #: True when every page of the range is cached (a free read).
    contains_all = RunLRU._covers

    def touch(self, start_page: int, npages: int) -> None:
        """Record a hit: refresh the pages' recency."""
        self.hits += 1
        self._place(start_page, npages)

    def insert(self, start_page: int, npages: int) -> None:
        """Record a transfer: install the pages, evicting LRU ones."""
        self.misses += 1
        self._place(start_page, npages)


class LRUDataCache(RunLRU):
    """The buffer pool's LRU region, with a dynamically adjustable capacity.

    Pages of every disk share one key space: a page is keyed by the
    packed integer ``disk << 48 | page``, so a run never crosses disks
    and a lookup allocates no tuple.  Every probe counts a hit or a miss.
    """

    __slots__ = ()

    _DISK_SHIFT = 48  # pages-per-disk fits comfortably below 2**48

    def contains_all(self, disk: int, start_page: int, npages: int) -> bool:
        """True when the whole range is cached (counts one hit/miss).

        A hit refreshes the range's recency.
        """
        key = (disk << self._DISK_SHIFT) + start_page
        if self._covers(key, npages):
            self.hits += 1
            self._place(key, npages)
            return True
        self.misses += 1
        return False

    def insert(self, disk: int, start_page: int, npages: int) -> None:
        """Install pages just read from disk, evicting LRU victims."""
        if self._capacity:
            self._place((disk << self._DISK_SHIFT) + start_page, npages)


class DeviceCore:
    """One disk's physical state and shared scheduling/pricing logic.

    Every mutable fact about the disk that both hosts must agree on
    lives here: the head position (cylinders), the elevator sweep
    direction, the tails of recently active sequential streams
    (bounded by the modelled prefetch-cache size -- beyond that bound
    interleaved scans evict each other's tails and sequentiality is
    genuinely lost, the physical face of thrashing), and the
    :class:`PrefetchCache` itself.

    ``rotation_stream`` supplies stochastic rotational delays when the
    resource config asks for them; hosts without a seeded stream (the
    live plane) price the deterministic half-rotation instead.
    """

    __slots__ = (
        "head",
        "direction",
        "cache",
        "sequential_continuations",
        "fault_multiplier",
        "_streams",
        "_max_streams",
        "_rotation_stream",
        "_cylinder_size",
        "_num_cylinders",
        "_pages_per_disk",
        "_transfer_s",
        "_rotation_s",
        "_half_rotation_s",
        "_stochastic_rotation",
        "_seek_time",
    )

    def __init__(self, resources, rotation_stream=None):
        #: Current head position, cylinders; starts at the middle.
        self.head = resources.num_cylinders // 2
        #: Elevator sweep direction: +1 inward, -1 outward.
        self.direction = 1
        #: Tails of recently active sequential streams.  A request that
        #: starts exactly at a tracked tail continues that stream and
        #: pays pure transfer -- no seek, no rotational delay -- which
        #: is what the paper's 256-KByte prefetch cache buys: several
        #: interleaved sequential scans each stay efficient.  The
        #: number of simultaneously tracked streams is bounded by the
        #: cache size (256 KB / 32 pages ~ a handful of block streams);
        #: beyond that, streams evict each other and sequentiality is
        #: lost.  (Insertion-ordered plain dict; oldest tail is the
        #: iteration front.)
        self._streams: dict = {}
        self._max_streams = max(1, resources.disk_cache_pages // resources.block_size)
        self.sequential_continuations = 0
        #: Service-time degradation factor (fault injection): 1.0 means
        #: a healthy device; a degraded window multiplies every priced
        #: access.  The DES host never touches it, so bit-identity of
        #: the no-fault path is structural.
        self.fault_multiplier = 1.0
        self.cache = PrefetchCache(resources.disk_cache_pages)
        self._rotation_stream = rotation_stream
        self._cylinder_size = resources.cylinder_size
        self._num_cylinders = resources.num_cylinders
        self._pages_per_disk = resources.pages_per_disk
        self._transfer_s = resources.transfer_s_per_page
        self._rotation_s = resources.rotation_s
        self._half_rotation_s = resources.rotation_s / 2.0
        self._stochastic_rotation = resources.stochastic_rotation
        self._seek_time = resources.seek_time

    # ------------------------------------------------------------------
    # geometry and pricing
    # ------------------------------------------------------------------
    @property
    def pages_per_disk(self) -> int:
        return self._pages_per_disk

    def cylinder_of(self, page: int) -> int:
        return page // self._cylinder_size

    def read_hit(self, start_page: int, npages: int) -> bool:
        """Consult the prefetch cache; a full hit refreshes recency."""
        if self.cache.contains_all(start_page, npages):
            self.cache.touch(start_page, npages)
            return True
        return False

    def service_time(self, start_page: int, npages: int, cylinder: int) -> float:
        """Price one access from the current head/stream state.

        A request starting exactly at a tracked stream tail is a
        sequential continuation: prefetched, pure transfer.  Anything
        else pays ``Seek(distance) + RotateDelay + Transfer`` with
        ``Seek(n) = SeekFactor * sqrt(n)`` [Bitt88].
        """
        transfer = npages * self._transfer_s
        if start_page in self._streams:
            self.sequential_continuations += 1
            if self.fault_multiplier != 1.0:
                return transfer * self.fault_multiplier
            return transfer
        seek = self._seek_time(abs(cylinder - self.head))
        if self._stochastic_rotation and self._rotation_stream is not None:
            rotate = self._rotation_stream.uniform(0.0, self._rotation_s)
        else:
            rotate = self._half_rotation_s
        if self.fault_multiplier != 1.0:
            return (seek + rotate + transfer) * self.fault_multiplier
        return seek + rotate + transfer

    def detour_service_time(self, npages: int) -> float:
        """Price an access without touching head or stream state.

        Used for rerouted reads during a fault window: a replica disk
        serves a foreign address range, so the usual positional pricing
        would alias its own geometry.  Charges the average random seek
        (one third of the cylinder span [Bitt88]) plus the deterministic
        half rotation plus transfer -- stateless, so the replica's own
        streams and prefetch contents are unaffected.
        """
        seek = self._seek_time(self._num_cylinders // 3)
        service = seek + self._half_rotation_s + npages * self._transfer_s
        if self.fault_multiplier != 1.0:
            return service * self.fault_multiplier
        return service

    def note_transfer(self, start_page: int, npages: int) -> None:
        """Record a served access: head movement, stream tails, cache.

        The head lands on the last cylinder touched and the sweep
        direction follows the movement; the access's end becomes a
        tracked stream tail (evicting the oldest beyond the bound);
        the transferred pages are installed in the prefetch cache.
        """
        end_cylinder = (start_page + npages - 1) // self._cylinder_size
        if end_cylinder != self.head:
            self.direction = 1 if end_cylinder > self.head else -1
        self.head = end_cylinder
        streams = self._streams
        streams.pop(start_page, None)
        streams[start_page + npages] = None
        while len(streams) > self._max_streams:
            del streams[next(iter(streams))]
        self.cache.insert(start_page, npages)

    # ------------------------------------------------------------------
    # ED queue selection with the elevator tie-break
    # ------------------------------------------------------------------
    def select(self, queue: List[Tuple[float, int, object]]) -> Optional[object]:
        """Pop the highest-priority entry; elevator order among ties.

        ``queue`` is a heap of ``(priority, seq, item)`` where ``item``
        exposes ``cancelled`` (skipped and dropped) and ``cylinder``
        (the tie-break key).  Reverses the sweep direction when no tied
        request lies ahead of the head -- exactly the DES semantics.
        """
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        top = heapq.heappop(queue)
        if not queue or queue[0][0] != top[0]:
            return top[2]  # common case: unique priority, no re-push
        # Collect the (rare) priority ties and pick by elevator order.
        ties: List[Tuple[float, int, object]] = [top]
        while queue and queue[0][0] == top[0]:
            entry = heapq.heappop(queue)
            if not entry[2].cancelled:
                ties.append(entry)
        if len(ties) == 1:
            return ties[0][2]
        chosen = self.elevator_choice([entry[2] for entry in ties])
        for entry in ties:
            if entry[2] is not chosen:
                heapq.heappush(queue, entry)
        return chosen

    def elevator_choice(self, requests: Sequence[object]) -> object:
        """Nearest cylinder in the sweep direction, else reverse sweep."""
        head = self.head
        ahead = [
            req
            for req in requests
            if (req.cylinder - head) * self.direction >= 0
        ]
        if ahead:
            return min(ahead, key=lambda req: abs(req.cylinder - head))
        self.direction *= -1
        return min(requests, key=lambda req: abs(req.cylinder - head))
