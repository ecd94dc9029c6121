"""The live admission gateway: the paper's policies against real queries.

:class:`LiveGateway` is an asyncio service that does for wall-clock
queries what the DES :class:`~repro.rtdbs.query_manager.QueryManager`
does for simulated ones -- and drives the *identical*
:class:`~repro.core.broker.MemoryBroker` /
:class:`~repro.policies.base.MemoryPolicy` objects to do it:

* submissions enter the broker's wait queue and every arrival and
  departure triggers a re-allocation decision;
* decisions are enforced through a
  :class:`~repro.serve.dataplane.TrackedAllocator` (an independent
  conservation-law ledger) before any grant reaches an operator;
* admitted queries run the *real* adaptive operators of
  :mod:`repro.queries` -- the PPHJ hash join and the adaptive external
  sort -- against the in-memory relations of a
  :class:`~repro.serve.dataplane.LiveDataPlane`.  The data plane is
  *shared and contended*: cacheable operand reads consult one
  cross-query :class:`~repro.serve.dataplane.LiveBufferPool` (the live
  buffer manager -- reservations shrink the LRU region every query
  shares), disk accesses consult the per-disk prefetch cache and queue
  in Earliest-Deadline order with the elevator tie-break on per-disk
  :class:`~repro.serve.dataplane.LiveDisk` service queues -- the same
  :class:`~repro.core.devices.DeviceCore` scheduling and pricing the
  simulator's disks run (concurrent queries stretch each other's
  accesses by real queueing delay, and interleaved scans break each
  other's sequential positioning), and CPU bursts occupy a slot of a
  bounded ED-ordered worker gate.  Disk service moves real bytes
  through the per-disk page stores (zero-copy replay);
* deadlines are enforced firmly: an expiry timer aborts a query
  wherever it is (waiting or mid-operator), releasing its memory and
  temp extents, and it counts as a missed, served query;
* per-class served/missed counts, throughput, admission-decision
  latency, and the observed MPL are collected in a
  :class:`LiveReport`.

Simulated seconds map to wall seconds through ``time_scale`` (0.05 =
20x faster than real time); deadlines scale identically, so policy
behaviour is preserved while a 60-second scenario replays in ~3
seconds of wall clock.
"""

from __future__ import annotations

import asyncio
import contextvars
import time as _time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, Generator, List, Optional, Tuple, Union

from repro.core.broker import BrokerTrace, MemoryBroker
from repro.policies.base import BatchStats, DepartureRecord, MemoryPolicy
from repro.policies.registry import make_policy
from repro.queries.base import MemoryGrant, Operator
from repro.queries.cost_model import StandAloneCostModel
from repro.queries.requests import AllocationWait, CPUBurst, DiskAccess, READ
from repro.rtdbs.config import SimulationConfig
from repro.serve.dataplane import (
    FutureWaiter,
    GrantLeakError,
    LiveBufferPool,
    LiveDataPlane,
    LiveDisk,
    TrackedAllocator,
)
from repro.serve.faults import (
    CircuitBreaker,
    DiskFaultError,
    FaultInjector,
    FaultSchedule,
    FaultyPolicy,
    PolicyFaultError,
)
from repro.serve.workload import LiveArrival, LiveSchedule, make_operator

WAITING = "waiting"
RUNNING = "running"
DONE = "done"
ABORTED = "aborted"
#: Rejected at arrival by overload shedding: never registered, never
#: granted, answered with a structured ``shed`` response.
SHED = "shed"

#: Never sleep for less than this (wall seconds): event-loop timers are
#: only ~millisecond-accurate, so service debt is accumulated and paid
#: in chunks at least this large.  Each paid chunk returns its pacing
#: carry (debt minus wall actually elapsed) so timer overshoot is
#: repaid by the next chunk instead of compounding over a replay.
MIN_SLEEP = 0.001

#: Yielded by a drive step that queued itself on a disk arm, a worker
#: slot or its grant: the handover resumes it, no timer does.
PARKED = None

#: Sleepers due within the clock's resolution run in the current pass,
#: as the event loop treats its own timers.
_CLOCK_RESOLUTION = _time.get_clock_info("monotonic").resolution


def _quantize(seconds: float) -> float:
    """Floor a sleep request to a whole-millisecond quantum.

    The stdlib selector rounds epoll timeouts *up* to whole
    milliseconds, so ``sleep(0.0012)`` actually takes ~2.3 ms -- nearly
    double.  Requesting the floored quantum keeps the per-sleep error
    under ~0.2 ms; the sub-millisecond remainder rides the pacing carry
    instead of being rounded up by the kernel on every chunk.
    """
    return int(seconds * 1000.0) * 0.001


class PriorityWorkerGate:
    """Earliest-Deadline admission to a fixed number of worker slots.

    The simulated CPU and disks serve requests in ED order; a plain
    FIFO thread pool would quietly replace that with arrival order and
    distort every policy comparison.  This gate hands worker slots to
    the most urgent waiter first: service chunks are small (a few
    milliseconds), so an urgent query overtakes a backlog at chunk
    granularity -- the live analogue of the simulator's priority
    queues.

    Releases are batched: each :meth:`release` parks the slot and
    schedules one flush per event-loop pass, so N chunks finishing in
    the same pass cost one heap drain instead of N handoffs -- and a
    more urgent waiter that enqueues in that same pass wins the slot,
    which a direct handoff would have given to a patient one.
    """

    def __init__(self, slots: int):
        if slots < 1:
            raise ValueError(f"need at least one worker slot, got {slots}")
        self._free = slots
        self._waiters: List[tuple] = []  # heap of (priority, seq, waiter)
        self._seq = 0
        self._pending = 0  # slots released but not yet flushed
        self._flush_scheduled = False

    def take(self, waiter, priority: float) -> bool:
        """Claim a slot for ``waiter``, or queue it in ED order.

        Returns ``True`` when a slot was free and is now held;
        otherwise a later flush resumes the waiter with the slot.
        """
        if self._free > 0 and not self._waiters:
            self._free -= 1
            return True
        self._seq += 1
        heappush(self._waiters, (priority, self._seq, waiter))
        return False

    async def acquire(self, priority: float) -> None:
        waiter = FutureWaiter(asyncio.get_running_loop().create_future())
        if self.take(waiter, priority):
            return
        try:
            await waiter.future  # a flushed slot is handed over here
        except asyncio.CancelledError:
            if waiter.future.done() and not waiter.future.cancelled():
                # The slot was handed over in the same loop pass the
                # expiry cancelled us: give it back or it leaks.
                self.release()
            raise

    def release(self) -> None:
        self._pending += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        free = self._free + self._pending
        self._pending = 0
        waiters = self._waiters
        while free > 0 and waiters:
            waiter = heappop(waiters)[2]
            if not waiter.cancelled:  # skip waiters aborted by expiry
                waiter.resume()
                free -= 1
        self._free = free


class PacedStep:
    """One running query's drive generator, as the :class:`Pacer` and
    the disk and worker-gate queues see it.

    It is the query's queue entry on every disk arm and gate slot it
    waits for: ``cancelled`` and ``cylinder`` are what
    :meth:`~repro.core.devices.DeviceCore.select` reads, and
    :meth:`resume` is how a releasing holder hands the arm or slot
    over.  ``resumed`` stays set from that handover until the pacer
    steps the generator, so an abort in between knows to pass the
    resource on.  Each step runs in ``context``, a copy of the query
    task's context, so context variables set around the task (a
    tracer's query id and parent span) still hold inside the drive.
    """

    __slots__ = (
        "pacer", "priority", "gen", "context", "done",
        "cylinder", "cancelled", "resumed",
    )

    def __init__(self, pacer: "Pacer", priority: float, done: asyncio.Future):
        self.pacer = pacer
        #: The query's deadline: its ED key on every queue.
        self.priority = priority
        self.gen = None
        self.context = contextvars.copy_context()
        #: Resolved by the pacer when the generator ends (or raises).
        self.done = done
        self.cylinder = 0
        self.cancelled = False
        self.resumed = False

    def resume(self) -> None:
        self.pacer.resume(self)


class Pacer:
    """Steps every running query's drive generator on one timer heap.

    A drive step yields either the wall time to sleep until (the end of
    a paced service chunk, or a fault-retry backoff) or :data:`PARKED`
    after queueing itself on a disk arm, a worker-gate slot or its
    grant; the handover (:meth:`resume`) puts a parked step on the
    ready queue.  Sleepers wait in a heap of ``(wake, seq, step)``
    behind one re-armed ``loop.call_at``, and each step reads the clock
    once (:attr:`now`) -- a future plus a timer handle per 1 ms chunk
    cost more CPU than the work being paced.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._clock = loop.time
        self._heap: List[Tuple[float, int, PacedStep]] = []
        self._ready: Deque[PacedStep] = deque()
        self._seq = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_when = 0.0
        self._passing = False
        self._soon = False
        #: The clock as read for the step being run.
        self.now = loop.time()

    def start(self, drive, job: "LiveQuery") -> PacedStep:
        """Create ``drive(job, step)`` and queue its first step."""
        step = PacedStep(self, job.arrival.deadline, self._loop.create_future())
        step.gen = drive(job, step)
        self.resume(step)
        return step

    def resume(self, step: PacedStep) -> None:
        """Queue a step to run in this pass, or in the next loop pass."""
        step.resumed = True
        self._ready.append(step)
        if not self._passing and not self._soon:
            self._soon = True
            self._loop.call_soon(self._run)

    def cancel(self, step: PacedStep) -> None:
        """Abort a step for good.  Closing its generator runs the
        ``GeneratorExit`` handlers, which free an arm or slot it was
        handed but never used, and keep one in service until the
        chunk's service time is up (non-preemptive service)."""
        if step.cancelled:
            return
        step.cancelled = True
        step.gen.close()

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._heap.clear()
        self._ready.clear()

    def _on_timer(self) -> None:
        self._timer = None
        self._run()

    def _run(self) -> None:
        """Run every ready step and every sleeper that is due."""
        self._soon = False
        self._passing = True
        ready, heap, clock = self._ready, self._heap, self._clock
        try:
            while True:
                now = clock()
                if ready:
                    step = ready.popleft()
                    step.resumed = False
                elif heap and heap[0][0] <= now + _CLOCK_RESOLUTION:
                    step = heappop(heap)[2]
                else:
                    break
                if step.cancelled:
                    continue
                self.now = now
                try:
                    wake = step.context.run(next, step.gen)
                except StopIteration:
                    if not step.done.done():
                        step.done.set_result(None)
                    continue
                except Exception as error:
                    if not step.done.done():
                        step.done.set_exception(error)
                    continue
                if wake is not PARKED:
                    self._seq += 1
                    heappush(heap, (wake, self._seq, step))
        finally:
            self._passing = False
        if heap:
            when = heap[0][0]
            if self._timer is not None:
                if when >= self._timer_when:
                    return  # the armed timer fires first
                self._timer.cancel()
            self._timer = self._loop.call_at(when, self._on_timer)
            self._timer_when = when


@dataclass
class LiveQuery:
    """One in-flight query's runtime state."""

    arrival: LiveArrival
    operator: Operator
    grant: MemoryGrant
    state: str = WAITING
    demand_min: int = 0
    demand_max: int = 0
    submitted_wall: float = 0.0
    admitted_wall: Optional[float] = None
    task: Optional[asyncio.Task] = None
    #: The paced drive, once the task has started it.
    step: Optional[PacedStep] = None
    expiry: Optional[asyncio.TimerHandle] = None


@dataclass
class LiveClassStats:
    """Per-class live outcome counters."""

    arrivals: int = 0
    served: int = 0
    missed: int = 0
    #: Rejected at arrival by overload shedding (not served, not missed).
    shed: int = 0

    @property
    def completed(self) -> int:
        return self.served - self.missed

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.served if self.served else 0.0


@dataclass
class LiveReport:
    """Everything one live run measured."""

    policy: str
    time_scale: float
    workers: int
    arrivals: int = 0
    served: int = 0
    missed: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    per_class: Dict[str, LiveClassStats] = field(default_factory=dict)
    #: Admission decisions made (one per broker reallocation).
    decisions: int = 0
    decision_seconds: float = 0.0
    decision_max_seconds: float = 0.0
    #: Time-weighted number of admitted queries (wall-clock weighted).
    observed_mpl: float = 0.0
    pages_read: int = 0
    pages_written: int = 0
    bytes_moved: int = 0
    #: Shared buffer-pool consultations (cacheable operand reads).
    pool_hits: int = 0
    pool_misses: int = 0
    #: Wall seconds each disk's arm spent in service / chunks spent
    #: queueing behind other queries' chunks (contention telemetry).
    disk_busy: Tuple[float, ...] = ()
    disk_queue: Tuple[float, ...] = ()
    #: Per-tenant outcome counters (populated when arrivals carry a
    #: tenant tag -- the multi-tenant server and ``--tenants`` mode).
    per_tenant: Dict[str, LiveClassStats] = field(default_factory=dict)
    # -- degraded-mode telemetry (all zero on the no-fault path) -------
    #: Arrivals rejected by overload shedding.
    shed: int = 0
    #: Backoff retries against faulted disks.
    disk_retries: int = 0
    #: Cacheable reads rerouted to a healthy replica disk.
    disk_reroutes: int = 0
    #: Chunks abandoned fast (breaker open with no replica, or the
    #: deadline budget could not absorb another backoff).
    disk_fast_fails: int = 0
    #: Circuit-breaker trips across all disks.
    breaker_opens: int = 0
    #: Fault windows opened against the disks.
    disk_outages: int = 0
    disk_degrades: int = 0
    #: Injected policy exceptions survived (previous allocation kept).
    policy_faults: int = 0
    #: Queries aborted because their client vanished mid-request.
    client_cancels: int = 0
    #: Memory-pressure windows that shrank the effective pool.
    pool_shrinks: int = 0

    @property
    def completed(self) -> int:
        return self.served - self.missed

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.served if self.served else 0.0

    @property
    def pool_hit_ratio(self) -> float:
        consulted = self.pool_hits + self.pool_misses
        return self.pool_hits / consulted if consulted else 0.0

    @property
    def disk_queue_seconds(self) -> float:
        """Total wall seconds spent queueing across all disks."""
        return sum(self.disk_queue)

    @property
    def disk_queue_sim_seconds(self) -> float:
        """Queueing delay in simulated seconds (comparable to the DES)."""
        return self.disk_queue_seconds / self.time_scale if self.time_scale else 0.0

    @property
    def queries_per_sec(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def decisions_per_sec(self) -> float:
        return self.decisions / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def decision_latency_mean_us(self) -> float:
        if not self.decisions:
            return 0.0
        return self.decision_seconds / self.decisions * 1e6


class LiveGateway:
    """Admission control + grant enforcement for real concurrent queries."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: Union[str, MemoryPolicy],
        time_scale: float = 0.05,
        workers: Optional[int] = None,
        payload_bytes: int = 256,
        invariants: bool = False,
        recorder: Optional[BrokerTrace] = None,
        faults: Optional[FaultSchedule] = None,
        shed_overload: bool = False,
    ):
        config.validate()
        if time_scale <= 0:
            raise ValueError(f"time scale must be positive, got {time_scale}")
        self.config = config
        resolved_policy: MemoryPolicy = (
            make_policy(policy, config.pmm) if isinstance(policy, str) else policy
        )
        self.faults = faults
        self.shed_overload = shed_overload
        if faults is not None and faults.policy_faults:
            resolved_policy = FaultyPolicy(resolved_policy, faults.policy_faults)
        self.policy = resolved_policy
        self.time_scale = time_scale
        #: Worker-pool width defaults to the modelled parallelism: one
        #: CPU plus the disk farm.
        self.workers = (
            workers if workers is not None else config.resources.num_disks + 1
        )
        self.broker = MemoryBroker(
            self.policy,
            config.resources.memory_pages,
            config.pmm.sample_size,
            recorder=recorder,
        )
        self.allocator = TrackedAllocator(config.resources.memory_pages)
        #: The shared, cross-query buffer pool (grants + LRU reuse).
        self.pool = LiveBufferPool(self.allocator)
        self.dataplane = LiveDataPlane(config, payload_bytes=payload_bytes)
        #: The contended per-disk ED+elevator service queues.
        self.disks: List[LiveDisk] = self.dataplane.disks
        self.cost_model = StandAloneCostModel(
            resources=config.resources,
            costs=config.cpu_costs,
            tuples_per_page=config.tuples_per_page,
            fudge_factor=config.workload.fudge_factor,
            join_selectivity=config.workload.join_selectivity,
        )
        if invariants:
            from repro.rtdbs.invariants import InvariantChecker

            InvariantChecker().attach_broker(self.broker, pool=self.pool)

        self._jobs: Dict[int, LiveQuery] = {}
        #: Callbacks invoked with each DepartureRecord (the TCP server
        #: resolves per-client response futures here).
        self.departure_listeners: List = []
        #: Per-disk circuit breakers for the outage-survival path.  The
        #: cooldown and retry base are simulated seconds scaled to wall
        #: clock, so degraded-mode behaviour is time-scale invariant.
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(threshold=3, cooldown=self._to_wall(2.0))
            for _ in range(config.resources.num_disks)
        ]
        self._retry_base = self._to_wall(0.25)
        self._injector: Optional[FaultInjector] = (
            FaultInjector(faults, self)
            if faults is not None and (faults.disk_windows or faults.memory_windows)
            else None
        )
        self._gate: Optional[PriorityWorkerGate] = None
        self._pacer: Optional[Pacer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._reallocating = False
        self._drained: Optional[asyncio.Event] = None
        #: First enforcement/operator failure seen on a callback or task
        #: path (where asyncio would otherwise swallow it); re-raised by
        #: :meth:`drain` so a broken policy fails the run loudly.
        self._failure: Optional[BaseException] = None

        self.report = LiveReport(
            policy=self.policy.name, time_scale=time_scale, workers=self.workers
        )
        # Time-weighted MPL + batch-window accounting.
        self._mpl_integral = 0.0
        self._mpl_last_count = 0
        self._mpl_last_wall = 0.0
        self._busy_seconds = 0.0
        self._batch_wall_start = 0.0
        self._batch_mpl_start = 0.0
        self._batch_busy_start = 0.0
        self._batch_disk_busy = [0.0] * len(self.disks)
        self._batch_pool = (0, 0)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def _wall(self) -> float:
        return self._loop.time() - self._t0

    def sim_now(self) -> float:
        """Current time in simulated seconds."""
        return self._wall() / self.time_scale

    def _to_wall(self, sim_seconds: float) -> float:
        return sim_seconds * self.time_scale

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._gate = PriorityWorkerGate(self.workers)
        self._pacer = Pacer(self._loop)
        self._drained = asyncio.Event()
        self._drained.set()
        self._t0 = self._loop.time()
        if self._injector is not None:
            self._injector.arm()

    async def close(self) -> None:
        """Tear down: abort in-flight queries, then prove the ledger
        is empty -- a close that would leak grants raises
        :class:`~repro.serve.dataplane.GrantLeakError`."""
        if self._injector is not None:
            self._injector.cancel()
        had_jobs = bool(self._jobs)
        self._abort_all()
        if had_jobs:
            await asyncio.sleep(0)  # let cancelled tasks unwind
        if self._loop is not None:
            # Chunks cancelled mid-service release their disk arm on a
            # deferred timer (non-preemptive service); give those a
            # bounded window so the disks reach quiescence.
            deadline = self._loop.time() + 1.0
            while (
                any(disk.in_service for disk in self.disks)
                and self._loop.time() < deadline
            ):
                await asyncio.sleep(0.001)
        if self._pacer is not None:
            self._pacer.close()
        if self.allocator.reserved_pages:
            raise GrantLeakError(
                f"gateway closed with {self.allocator.reserved_pages} pages "
                "still reserved in the grant ledger"
            )

    def _abort_all(self) -> None:
        """Abort every in-flight query, releasing grants and chunks.

        Runs on gateway failure and at close: each job's expiry timer
        is cancelled and its drive stopped (:meth:`_stop`), and its
        grant, temp extents, and broker entry are released so the
        conservation ledger drains.
        """
        for job in list(self._jobs.values()):
            qid = job.arrival.qid
            if qid not in self._jobs:
                continue  # departed while a sibling was torn down
            if job.expiry is not None:
                job.expiry.cancel()
                job.expiry = None
            self._stop(job)
            job.state = ABORTED
            try:
                job.operator.release_resources()
            except Exception as error:
                self._fail(error)
            self.pool.release(qid)
            del self._jobs[qid]
            self.broker.release(qid)
        if self._drained is not None:
            self._drained.set()

    async def run_schedule(self, schedule: LiveSchedule) -> LiveReport:
        """Replay a full open-loop schedule and wait for the last
        departure (every query departs: completion or deadline abort)."""
        await self.start()
        try:
            for arrival in schedule.arrivals:
                # Pace against the absolute wall target with floored
                # sleeps: one rounded-up timer per arrival would make
                # every query ~1 ms late, silently eating its deadline
                # slack at tight time scales.
                target = self._t0 + self._to_wall(arrival.arrival)
                while True:
                    delay = target - self._loop.time()
                    if delay <= 0.0002:  # close enough: stop short of
                        break  # a sleep(0) spin on the remainder
                    await asyncio.sleep(_quantize(delay))
                self.submit(arrival)
            await self.drain()
        finally:
            self._finish_report()
            await self.close()
        return self.report

    async def drain(self) -> None:
        """Wait until no query is in flight.

        Re-raises the first failure captured on an expiry-callback or
        query-task path (e.g. :class:`GrantOversubscribedError` from a
        broken policy) -- those contexts have no awaiter of their own.
        """
        if self._jobs and self._failure is None:
            self._drained.clear()
            await self._drained.wait()
        if self._failure is not None:
            raise self._failure

    def _fail(self, error: BaseException) -> None:
        if self._failure is None:
            self._failure = error
            if self._loop is not None and self._jobs:
                # A failed gateway must not sit on grants: tear down
                # on a fresh loop pass (this path can be reached from
                # inside a departure, where teardown would reenter).
                self._loop.call_soon(self._abort_all)
        if self._drained is not None:
            self._drained.set()  # unblock drain() so the error surfaces

    def _finish_report(self) -> None:
        report = self.report
        report.wall_seconds = self._wall()
        report.sim_seconds = report.wall_seconds / self.time_scale
        self._note_mpl()
        if report.wall_seconds > 0:
            report.observed_mpl = self._mpl_integral / report.wall_seconds
        report.pages_read = sum(s.pages_read for s in self.dataplane.stores)
        report.pages_written = sum(s.pages_written for s in self.dataplane.stores)
        report.bytes_moved = (
            report.pages_read + report.pages_written
        ) * self.dataplane.stores[0].payload_bytes
        report.pool_hits = self.pool.hits
        report.pool_misses = self.pool.misses
        report.disk_busy = tuple(disk.busy_seconds for disk in self.disks)
        report.disk_queue = tuple(disk.queue_seconds for disk in self.disks)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, arrival: LiveArrival) -> LiveQuery:
        """A query arrives: register with the broker, arm its deadline,
        re-allocate.  Must be called on the event loop.

        With ``shed_overload`` on, an arrival whose deadline is already
        infeasible against the projected wait-queue backlog is rejected
        here -- state :data:`SHED`, never registered, never granted --
        instead of queueing doomed work that would steal memory from
        feasible queries before missing anyway."""
        if arrival.qid in self._jobs:
            raise ValueError(f"duplicate query id {arrival.qid}")
        if (
            self.shed_overload
            and self.config.firm_deadlines
            and self._projected_completion(arrival) > arrival.deadline
        ):
            return self._shed(arrival)
        grant = MemoryGrant(0)
        operator = make_operator(arrival, self.dataplane.context, grant, self.config)
        job = LiveQuery(
            arrival=arrival,
            operator=operator,
            grant=grant,
            submitted_wall=self._wall(),
        )
        # Clip demands to the *effective* pool (identical to the config
        # pool until a memory-pressure fault shrinks it).
        pool_pages = self.broker.total_pages
        job.demand_max = min(operator.max_pages, pool_pages)
        job.demand_min = min(operator.min_pages, job.demand_max)
        self._jobs[arrival.qid] = job
        if self._drained is not None:
            self._drained.clear()
        self.report.arrivals += 1
        stats = self.report.per_class.setdefault(
            arrival.class_name, LiveClassStats()
        )
        stats.arrivals += 1
        if arrival.tenant:
            tenant_stats = self.report.per_tenant.setdefault(
                arrival.tenant, LiveClassStats()
            )
            tenant_stats.arrivals += 1
        self.broker.register(
            arrival.qid,
            arrival.class_name,
            arrival.deadline,
            job.demand_min,
            job.demand_max,
        )
        if self.config.firm_deadlines:
            job.expiry = self._loop.call_at(
                self._t0 + self._to_wall(arrival.deadline),
                self._expire,
                job,
            )
        self._reallocate()
        return job

    def _projected_completion(self, arrival: LiveArrival) -> float:
        """Earliest the arrival could plausibly finish (sim seconds).

        Its own stand-alone service plus the waiting queries' stand-
        alone backlog spread over the worker pool -- deliberately
        optimistic (ignores contention stretch), so shedding only fires
        on arrivals that are infeasible even in the best case.
        """
        backlog = sum(
            job.arrival.standalone
            for job in self._jobs.values()
            if job.state == WAITING
        )
        return (
            self.sim_now()
            + arrival.standalone
            + backlog / max(1, self.workers)
        )

    def _shed(self, arrival: LiveArrival) -> LiveQuery:
        """Reject at arrival: counted, never registered, never granted."""
        job = LiveQuery(
            arrival=arrival,
            operator=None,
            grant=MemoryGrant(0),
            state=SHED,
            submitted_wall=self._wall(),
        )
        report = self.report
        report.arrivals += 1
        report.shed += 1
        stats = report.per_class.setdefault(arrival.class_name, LiveClassStats())
        stats.arrivals += 1
        stats.shed += 1
        if arrival.tenant:
            tenant_stats = report.per_tenant.setdefault(
                arrival.tenant, LiveClassStats()
            )
            tenant_stats.arrivals += 1
            tenant_stats.shed += 1
        return job

    def set_pool_pages(self, pages: int) -> None:
        """Resize the effective buffer pool (memory-pressure fault).

        Shrinking re-allocates *before* the ledger shrinks, so every
        grant already fits the new bound when the allocator's
        conservation check runs; growing resizes first so the policy
        can immediately spend the returned pages.
        """
        if pages == self.broker.total_pages:
            return
        shrinking = pages < self.broker.total_pages
        self.broker.set_total_pages(pages)
        if shrinking:
            self._reallocate()
            self.pool.resize(pages)
        else:
            self.pool.resize(pages)
            self._reallocate()

    def cancel_query(self, qid: int) -> bool:
        """Abort one in-flight query whose client vanished.

        The disconnect analogue of :meth:`_expire`: stops the drive
        (:meth:`_stop`), departs the query as missed, and releases its
        grant.  Returns ``False`` when the query already departed.
        """
        job = self._jobs.get(qid)
        if job is None or job.state in (DONE, ABORTED):
            return False
        job.state = ABORTED
        self.report.client_cancels += 1
        self._stop(job)
        try:
            self._depart(job, missed=True)
        except Exception as error:  # surface enforcement bugs via drain()
            self._fail(error)
        return True

    def _reallocate(self) -> None:
        """One broker decision, enforced and enacted in ED order."""
        if self._reallocating:
            return
        self._reallocating = True
        try:
            started = _time.perf_counter()
            try:
                decision = self.broker.reallocate(now=self.sim_now())
            except PolicyFaultError:
                # Transient allocation-path failure: keep the previous
                # (still-conserved) allocation and retry on the next
                # arrival or departure.  Real policy bugs are not
                # PolicyFaultError and still fail the run loudly.
                self.report.policy_faults += 1
                return
            self.pool.apply(decision.allocation)
            elapsed = _time.perf_counter() - started
            report = self.report
            report.decisions += 1
            report.decision_seconds += elapsed
            if elapsed > report.decision_max_seconds:
                report.decision_max_seconds = elapsed
            allocation = decision.allocation
            for qid in decision.order:
                job = self._jobs[qid]
                pages = allocation.get(qid, 0)
                if job.state == WAITING and pages > 0:
                    self._admit(job, pages)
                elif job.state == RUNNING:
                    job.grant.set(pages)
            self._note_mpl()
        finally:
            self._reallocating = False

    def _admit(self, job: LiveQuery, pages: int) -> None:
        job.state = RUNNING
        job.admitted_wall = self._wall()
        job.grant.set(pages)
        job.grant.started = True
        job.task = self._loop.create_task(
            self._run_query(job), name=f"query-{job.arrival.qid}"
        )

    def _note_mpl(self) -> None:
        now = self._wall()
        self._mpl_integral += self._mpl_last_count * (now - self._mpl_last_wall)
        self._mpl_last_wall = now
        self._mpl_last_count = self.broker.admitted_count

    def observed_mpl(self) -> float:
        """Time-weighted admitted-query count so far (the live MPL)."""
        wall = self._wall()
        if wall <= 0:
            return 0.0
        integral = self._mpl_integral + self._mpl_last_count * (
            wall - self._mpl_last_wall
        )
        return integral / wall

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run_query(self, job: LiveQuery) -> None:
        step = job.step = self._pacer.start(self._drive, job)
        try:
            await step.done
        except asyncio.CancelledError:
            self._pacer.cancel(step)  # no-op unless cancelled from outside
            return  # the expiry timer owns the departure
        except DiskFaultError:
            # The outage-survival path gave up on this query: a firm
            # miss, not a gateway failure -- grants released, counters
            # conserved, every other query keeps running.
            if job.state != RUNNING:
                return  # the expiry abort got there first
            job.state = ABORTED
            try:
                self._depart(job, missed=True)
            except Exception as error:
                self._fail(error)
            return
        except Exception as error:  # operator bug: fail the run loudly
            self._fail(error)
            job.state = ABORTED
            try:
                self._depart(job, missed=True)
            except Exception as cleanup_error:
                self._fail(cleanup_error)
            return
        if job.state != RUNNING:
            return  # aborted while the final step was in flight
        job.state = DONE
        missed = self.sim_now() > job.arrival.deadline + 1e-9
        try:
            self._depart(job, missed=missed)
        except Exception as error:  # enforcement violation on departure
            self._fail(error)

    def _drive(
        self, job: LiveQuery, step: PacedStep
    ) -> Generator[Optional[float], None, None]:
        """Execute the operator's request stream against the data plane.

        A generator stepped by the gateway's :class:`Pacer`, the live
        counterpart of the DES's ``QueryManager._drive``: it yields the
        wall time a paced chunk ends (the pacer's timer heap wakes it
        then) or :data:`PARKED` while it waits for a disk arm, a
        worker slot or a grant change, and reads the time from
        ``Pacer.now``.

        Disk accesses are priced by the shared
        :class:`~repro.core.devices.DeviceCore` -- the same seek /
        rotate / transfer rules and stream-tail state the DES disks run
        -- against *shared, contended* resources: cacheable operand
        reads consult the cross-query :class:`LiveBufferPool` first (a
        hit skips the disk entirely), any read then consults the
        per-disk prefetch cache (a hit costs no arm time, as in
        ``Disk.submit_op``), positioning reads the per-disk head and
        stream state every query updates (interleaved scans break each
        other's streams), and the service time is paid on the disk's
        ED+elevator queue, where concurrent queries' chunks genuinely
        wait behind more urgent ones.  A query alone in the server
        still runs in roughly its stand-alone time; under load,
        queueing delay and lost sequentiality stretch it the way the
        DES disks predict.

        Service debt (scaled to wall seconds) is accumulated per
        resource and paid in ``MIN_SLEEP``-sized chunks: CPU debt
        occupies an ED-ordered worker-gate slot, disk debt occupies
        the disk's arm while the pending byte traffic replays through
        the page store (zero-copy).  Every paid chunk returns its
        pacing carry (debt minus wall actually elapsed), so timer
        overshoot is repaid by the next chunk instead of compounding
        into spurious deadline misses.
        """
        resources = self.config.resources
        cpu_rate = resources.cpu_rate
        start_io = self.config.cpu_costs.start_io
        scale = self.time_scale
        pool = self.pool
        disks = self.disks
        cpu_debt = 0.0
        disk_debt: Dict[int, float] = {}  # wall seconds per disk
        disk_ops: Dict[int, List[tuple]] = {}
        for request in job.operator.run():
            request_type = type(request)
            if request_type is DiskAccess:
                cacheable_read = request.kind == READ and request.cacheable
                if cacheable_read and pool.read_hit(
                    request.disk, request.start_page, request.npages
                ):
                    # Served from the shared pool: no disk time, but
                    # the attached per-block processing burst still
                    # runs (mirror of the DES buffer-hit path).
                    cpu_debt += request.cpu / cpu_rate * scale
                    if cpu_debt >= MIN_SLEEP:
                        cpu_debt = yield from self._cpu_chunk(step, cpu_debt)
                    continue
                disk = disks[request.disk]
                serving_index = request.disk
                if disk.faulted:
                    # Outage window: bounded retry within the deadline
                    # budget, then reroute or fail fast.  Raises
                    # DiskFaultError when the query is doomed.
                    serving_index = yield from self._survive_disk_fault(
                        job, request
                    )
                # The per-block burst + "start an I/O" run on the CPU
                # (overlapping other queries' disk service), exactly as
                # the DES charges them -- prefetch hit or not.
                cpu_debt += (request.cpu + start_io) / cpu_rate * scale
                if cpu_debt >= MIN_SLEEP:
                    cpu_debt = yield from self._cpu_chunk(step, cpu_debt)
                if serving_index == request.disk:
                    if request.kind == READ and disk.read_hit(
                        request.start_page, request.npages
                    ):
                        # Per-disk prefetch-cache hit: no arm time, the
                        # same short-circuit as ``Disk.submit_op``.
                        if cacheable_read:
                            pool.install(
                                request.disk, request.start_page, request.npages
                            )
                        continue
                    service = disk.service_time(
                        request.start_page, request.npages
                    )
                else:
                    # Rerouted replica read: priced by the detour rule
                    # (stateless average seek + half rotation), so a
                    # foreign address range never pollutes the serving
                    # disk's head, stream, or prefetch state.
                    service = disks[serving_index].detour_service_time(
                        request.npages
                    )
                debt = disk_debt.get(serving_index, 0.0) + service * scale
                disk_ops.setdefault(serving_index, []).append(
                    (
                        request.kind,
                        request.start_page,
                        request.npages,
                        cacheable_read,
                        request.disk,
                    )
                )
                if debt >= MIN_SLEEP:
                    disk_debt[serving_index] = yield from self._disk_chunk(
                        step, serving_index, debt, disk_ops.pop(serving_index)
                    )
                else:
                    disk_debt[serving_index] = debt
            elif request_type is CPUBurst:
                cpu_debt += request.instructions / cpu_rate * scale
                if cpu_debt >= MIN_SLEEP:
                    cpu_debt = yield from self._cpu_chunk(step, cpu_debt)
            elif request_type is AllocationWait:
                if job.grant.pages > 0:
                    continue  # raced with a re-grant: keep going
                # Outstanding debts here are sub-MIN_SLEEP residues by
                # construction (anything larger was paid at accrual).
                # They stay accumulated across the wait: paying a
                # 0.3 ms residue with a real timer costs ~1 ms of
                # overshoot, which compounds into spurious deadline
                # misses at tight time scales.
                # No award between here and the wait is possible: the
                # check and the waiter registration share one step.
                job.grant.on_change(step.resume)
                yield PARKED
            else:  # pragma: no cover - operator contract violation
                raise TypeError(f"unknown operator request {request!r}")
        # End of the stream: pay every outstanding sub-chunk debt.
        if cpu_debt > 0.0:
            yield from self._cpu_chunk(step, cpu_debt)
        for disk_index in list(disk_ops):
            yield from self._disk_chunk(
                step,
                disk_index,
                disk_debt.pop(disk_index, 0.0),
                disk_ops.pop(disk_index),
            )

    def _cpu_chunk(
        self, step: PacedStep, debt_wall: float
    ) -> Generator[Optional[float], None, float]:
        """Occupy one ED-ordered worker-gate slot for the chunk.

        The chunk sleeps on the pacer's heap and returns its pacing
        carry -- ``debt - wall actually elapsed``, usually a small
        negative number -- which rides back into the query's debt
        accumulator: timer overshoot self-corrects instead of
        compounding into inflated execution times over hundreds of
        chunks.  Service is non-preemptive: a deadline abort mid-chunk
        stops the query immediately, but the slot stays occupied for
        the chunk's remaining service time.
        """
        self._busy_seconds += debt_wall
        gate = self._gate
        if not gate.take(step, step.priority):
            try:
                yield PARKED  # a flushed slot is handed over here
            except GeneratorExit:
                if step.resumed:
                    # The slot was handed over in the same loop pass
                    # the expiry aborted us: give it back or it leaks.
                    gate.release()
                raise
        pacer = self._pacer
        started = pacer.now
        quantum = _quantize(debt_wall)
        if quantum > 0.0:
            try:
                yield started + quantum
            except GeneratorExit:
                loop = self._loop
                remaining = debt_wall - (loop.time() - started)
                if remaining > 0.0:
                    loop.call_later(remaining, gate.release)
                else:
                    gate.release()
                raise
        gate.release()
        return debt_wall - (pacer.now - started)

    def _disk_chunk(
        self, step: PacedStep, disk_index: int, debt_wall: float, ops: List[tuple]
    ) -> Generator[Optional[float], None, float]:
        """Pay one disk's service chunk on its ED+elevator queue.

        The chunk waits behind every more urgent chunk (the contention
        the zero-contention deadline pricing knows nothing about),
        then holds the arm for its service time while the byte traffic
        replays through the page store -- zero-copy, inline, counted
        toward the service time; cacheable reads are installed into
        the shared buffer pool as they complete, where any concurrent
        query can hit them.  Returns the chunk's pacing carry.
        """
        disk = self.disks[disk_index]
        pacer = self._pacer
        if not disk.take(step, step.priority, disk.cylinder_of(ops[0][1])):
            asked = pacer.now
            try:
                yield PARKED  # the releasing holder hands the arm over
            except GeneratorExit:
                disk.chunks_cancelled += 1
                if step.resumed:
                    # The arm was handed over in the same loop pass the
                    # expiry aborted us: pass it on or it leaks.
                    disk.release()
                raise
            disk.queue_seconds += pacer.now - asked
        started = pacer.now
        store = disk.store
        for kind, start_page, npages, _cacheable, _home in ops:
            if kind == READ:
                store.replay_read(start_page, npages)
            else:
                store.write_blank(start_page, npages)
        quantum = _quantize(debt_wall)
        if quantum > 0.0:
            try:
                yield started + quantum
            except GeneratorExit:
                # Non-preemptive service, as on the DES disk: the abort
                # stops the query immediately, but the arm stays held
                # until the chunk's service time is up -- releasing
                # early would serve two chunks on one arm.
                loop = self._loop
                left = debt_wall - (loop.time() - started)
                if left > 0.0:
                    loop.call_later(left, disk.release_cancelled)
                else:
                    disk.release_cancelled()
                raise
        if debt_wall > 0.0:
            disk.busy_seconds += debt_wall
        disk.accesses += len(ops)
        disk.chunks_served += 1
        pool = self.pool
        for kind, start_page, npages, cacheable, home_disk in ops:
            if cacheable and kind == READ:
                # Keyed by the *home* disk: a rerouted replica read
                # still caches under the canonical address.
                pool.install(home_disk, start_page, npages)
        disk.release()
        return debt_wall - (pacer.now - started)

    def _survive_disk_fault(
        self, job: LiveQuery, request: DiskAccess
    ) -> Generator[Optional[float], None, int]:
        """Outage survival: bounded retry, then reroute or fail fast.

        Retries with exponential backoff while the firm deadline can
        still absorb another attempt; failures feed the disk's shared
        circuit breaker, so once it trips, *every* query skips the
        backoff burn: cacheable (replicated) reads reroute to the first
        healthy replica, anything else raises
        :class:`~repro.serve.faults.DiskFaultError` immediately and the
        query departs as a miss.  Returns the serving disk index.
        """
        home = request.disk
        disk = self.disks[home]
        breaker = self._breakers[home]
        report = self.report
        pacer = self._pacer
        deadline_wall = self._t0 + self._to_wall(job.arrival.deadline)
        attempt = 0
        while True:
            if not disk.faulted:
                breaker.record_success()
                return home
            now = pacer.now
            if breaker.is_open(now):
                if request.kind == READ and request.cacheable:
                    for index, candidate in enumerate(self.disks):
                        if index != home and not candidate.faulted:
                            report.disk_reroutes += 1
                            return index
                report.disk_fast_fails += 1
                raise DiskFaultError(
                    f"disk {home} outage: breaker open, no healthy replica"
                )
            opens_before = breaker.opens
            breaker.record_failure(now)
            if breaker.opens > opens_before:
                report.breaker_opens += 1
            backoff = max(
                MIN_SLEEP, _quantize(self._retry_base * (2.0**attempt))
            )
            if (
                self.config.firm_deadlines
                and now + backoff >= deadline_wall
            ):
                report.disk_fast_fails += 1
                raise DiskFaultError(
                    f"disk {home} outage: deadline budget exhausted "
                    f"after {attempt} retries"
                )
            report.disk_retries += 1
            attempt += 1
            yield now + backoff

    # ------------------------------------------------------------------
    # departures
    # ------------------------------------------------------------------
    def _expire(self, job: LiveQuery) -> None:
        """Firm deadline: abort wherever the query is [Hari90]."""
        if job.state in (DONE, ABORTED):
            return
        job.state = ABORTED
        self._stop(job)
        try:
            self._depart(job, missed=True)
        except Exception as error:  # callback context: surface via drain()
            self._fail(error)

    def _stop(self, job: LiveQuery) -> None:
        """Close the query's drive and end its task.

        Closing the generator runs its ``GeneratorExit`` handlers: a
        chunk in service keeps its arm or slot until its service time
        is up, and one handed over but not yet used is passed on.
        """
        if job.step is not None:
            self._pacer.cancel(job.step)
        if job.task is not None:
            job.task.cancel()

    def _depart(self, job: LiveQuery, missed: bool) -> None:
        qid = job.arrival.qid
        if qid not in self._jobs:
            return  # already departed
        job.operator.release_resources()
        self.pool.release(qid)
        del self._jobs[qid]
        self.broker.release(qid)
        if job.expiry is not None:
            job.expiry.cancel()
            job.expiry = None

        now_sim = self.sim_now()
        now_wall = self._wall()
        scale = self.time_scale
        if job.admitted_wall is None:
            waiting = (now_wall - job.submitted_wall) / scale
            execution = 0.0
        else:
            waiting = (job.admitted_wall - job.submitted_wall) / scale
            execution = (now_wall - job.admitted_wall) / scale
        record = DepartureRecord(
            qid=qid,
            class_name=job.arrival.class_name,
            missed=missed,
            arrival=job.arrival.arrival,
            departure=now_sim,
            waiting_time=waiting,
            execution_time=execution,
            time_constraint=job.arrival.time_constraint,
            max_demand=job.demand_max,
            min_demand=job.demand_min,
            operand_io_count=job.operator.operand_io_count,
            memory_fluctuations=job.grant.fluctuations,
        )
        self.broker.note_departure(missed)
        report = self.report
        report.served += 1
        stats = report.per_class.setdefault(job.arrival.class_name, LiveClassStats())
        stats.served += 1
        tenant_stats = None
        if job.arrival.tenant:
            tenant_stats = report.per_tenant.setdefault(
                job.arrival.tenant, LiveClassStats()
            )
            tenant_stats.served += 1
        if missed:
            report.missed += 1
            stats.missed += 1
            if tenant_stats is not None:
                tenant_stats.missed += 1
        for listener in self.departure_listeners:
            listener(record)
        window = self.broker.departure_feedback(record)
        if window is not None:
            self.broker.deliver_batch(self._batch_stats(window))
        self._reallocate()
        if not self._jobs and self._drained is not None:
            self._drained.set()

    def _batch_stats(self, window) -> BatchStats:
        """Live telemetry for the policy's feedback channel.

        The realized MPL is the wall-time-weighted admitted count over
        the window; CPU utilisation is the worker gate's busy fraction,
        disk utilisations are each arm's measured busy fraction over
        the window, and the shared pool's window hit ratio rides along
        -- the same signals the DES host measures for its policies.
        """
        now = self._wall()
        self._note_mpl()
        span = max(now - self._batch_wall_start, 1e-9)
        realized_mpl = (self._mpl_integral - self._batch_mpl_start) / span
        busy = self._busy_seconds - self._batch_busy_start
        utilization = min(1.0, busy / (span * self.workers))
        disk_utilizations = tuple(
            min(1.0, (disk.busy_seconds - previous) / span)
            for disk, previous in zip(self.disks, self._batch_disk_busy)
        )
        pool_hits, pool_misses = self._batch_pool
        consulted = (self.pool.hits - pool_hits) + (self.pool.misses - pool_misses)
        pool_hit_ratio = (self.pool.hits - pool_hits) / consulted if consulted else 0.0
        self._batch_wall_start = now
        self._batch_mpl_start = self._mpl_integral
        self._batch_busy_start = self._busy_seconds
        self._batch_disk_busy = [disk.busy_seconds for disk in self.disks]
        self._batch_pool = (self.pool.hits, self.pool.misses)
        return BatchStats(
            time=self.sim_now(),
            served=window.served,
            missed=window.missed,
            realized_mpl=realized_mpl,
            cpu_utilization=utilization,
            disk_utilizations=disk_utilizations,
            pool_hit_ratio=pool_hit_ratio,
        )


async def run_live(
    config: SimulationConfig,
    policy: Union[str, MemoryPolicy],
    time_scale: float = 0.05,
    workers: Optional[int] = None,
    horizon: Optional[float] = None,
    max_arrivals: Optional[int] = None,
    invariants: bool = False,
    faults: Optional[FaultSchedule] = None,
    shed_overload: bool = False,
    recorder: Optional[BrokerTrace] = None,
) -> LiveReport:
    """Convenience: build gateway + schedule, replay, return the report."""
    from repro.serve.workload import build_schedule

    gateway = LiveGateway(
        config,
        policy,
        time_scale=time_scale,
        workers=workers,
        invariants=invariants,
        faults=faults,
        shed_overload=shed_overload,
        recorder=recorder,
    )
    schedule = build_schedule(
        config, gateway.dataplane.database, horizon=horizon, max_arrivals=max_arrivals
    )
    return await gateway.run_schedule(schedule)
