"""The Query Manager: query lifecycle under firm deadlines.

Responsibilities (Section 4, plus firm-RTDBS semantics [Hari90]):

* keep the population of present queries (waiting for admission or
  executing) ordered by Earliest Deadline;
* drive the simulator-agnostic :class:`~repro.core.broker.MemoryBroker`
  on every arrival / departure / policy request, then enact its
  allocation decision: admit waiting queries granted memory, adjust
  running queries' grants (operators adapt), and suspend those whose
  grant dropped to zero;
* translate operator requests (CPU bursts, disk accesses, allocation
  waits) into simulated resource usage, charging the Table 4 "start an
  I/O" CPU cost before every disk access and consulting the buffer
  pool's LRU region for cacheable reads;
* abort a query the instant its deadline expires, wherever it is,
  releasing its memory and temp files -- it then counts as a missed,
  "served" query;
* after every ``SampleSize`` departures, hand the policy a batch
  summary (utilisations and realized MPL over the batch window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.broker import MemoryBroker
from repro.policies.base import BatchStats, DepartureRecord, MemoryPolicy
from repro.queries.base import MemoryGrant, Operator
from repro.queries.requests import AllocationWait, CPUBurst, DiskAccess, READ
from repro.rtdbs.buffer_manager import BufferManager
from repro.rtdbs.config import SimulationConfig
from repro.rtdbs.cpu import CPU
from repro.rtdbs.disk import Disk
from repro.sim.events import Event, Interrupt
from repro.sim.monitor import TimeWeighted
from repro.sim.resources import CallbackBurst, ServiceRequest
from repro.sim.process import Process
from repro.sim.simulator import Simulator

WAITING = "waiting"
RUNNING = "running"
DONE = "done"
ABORTED = "aborted"


class _DiskOp(Event):
    """Completion event for one operator :class:`DiskAccess`.

    Chains the combined CPU submission (carried per-block burst plus
    the Table 4 start-I/O cost) and the disk access itself through
    plain callbacks, so the query's process suspends and resumes once
    per page-block instead of once per resource.  Resource ordering is
    unchanged: the disk request is still submitted at the simulated
    instant the CPU burst completes.

    The op is also the *disk request itself* (via ``Disk.submit_op``)
    and its CPU stage is an Event-free :class:`CallbackBurst`.  A job
    has at most one outstanding access, so the op (and its burst) are
    allocated once per query and recycled for every block.
    """

    __slots__ = ("cpu", "disk", "kind", "start_page", "npages", "priority",
                 "stage", "burst", "_seq", "cylinder")

    def __init__(self, sim, cpu, priority: float):
        super().__init__(sim)
        self.cpu = cpu
        self.priority = priority
        self.disk = None
        self.kind = READ
        self.start_page = 0
        self.npages = 0
        self.stage = "cpu"
        self.burst = CallbackBurst(0.0, priority, 0, self._cpu_done)

    def begin(self, disk, access, start_io: float) -> None:
        """Arm the op for one :class:`DiskAccess` and submit its CPU leg."""
        self._triggered = False
        self._value = None
        self.disk = disk
        self.kind = access.kind
        self.start_page = access.start_page
        self.npages = access.npages
        self.stage = "cpu"
        self.cpu.execute_reuse(self.burst, start_io + access.cpu, self.priority)

    def _cpu_done(self, _burst) -> None:
        if self._cancelled:
            return
        self.stage = "disk"
        if self.disk.submit_op(self):
            # Disk-cache hit: no arm time; complete in place (the
            # waiting process resumes synchronously, exactly when a
            # direct wait on the disk request would resume).
            self._triggered = True
            self._run_callbacks()

    def cancel_op(self) -> None:
        """Abort: withdraw whichever resource request is outstanding."""
        if self.stage == "cpu":
            self.cancel()
            self.cpu.cancel(self.burst)
        else:
            # The op *is* the disk request; the disk distinguishes
            # in-service (bookkeeping still runs) from queued requests.
            self.disk.cancel(self)


@dataclass
class QueryJob:
    """One query's runtime state."""

    qid: int
    class_name: str
    operator: Operator
    grant: MemoryGrant
    arrival: float
    deadline: float
    standalone: float
    state: str = WAITING
    admit_time: Optional[float] = None
    process: Optional[Process] = None
    #: Outstanding resource request handle: a :class:`_DiskOp`, a CPU
    #: :class:`ServiceRequest`, or an allocation-wait :class:`Event`.
    pending: Optional[object] = None
    #: Deadline-expiry timer (cancelled on completion).
    expiry_timer: Optional[Event] = None
    demand_min: int = 0
    demand_max: int = 0

    @property
    def priority(self) -> float:
        """ED priority: the absolute deadline (smaller = more urgent)."""
        return self.deadline

    @property
    def time_constraint(self) -> float:
        """Deadline minus arrival."""
        return self.deadline - self.arrival


class QueryManager:
    """Lifecycle engine binding operators to the simulated resources."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        policy: MemoryPolicy,
        cpu: CPU,
        disks: List[Disk],
        buffers: BufferManager,
    ):
        self.sim = sim
        self.config = config
        self.policy = policy
        self.cpu = cpu
        self.disks = disks
        self.buffers = buffers

        self._jobs: Dict[int, QueryJob] = {}
        #: The simulator-agnostic admission/allocation core.  It owns
        #: the policy-facing population, the departure counters, and
        #: the batch feedback cadence; this manager enacts its
        #: decisions against the simulated resources.
        self.broker = MemoryBroker(
            policy, buffers.total_pages, config.pmm.sample_size
        )
        #: Time-weighted number of admitted queries (the observed MPL).
        self.mpl_monitor = TimeWeighted(sim, initial=0.0)
        #: Time-weighted number of present queries (admitted + waiting).
        self.present_monitor = TimeWeighted(sim, initial=0.0)
        #: Callbacks invoked with each DepartureRecord (Source wires its
        #: statistics collection here).
        self.departure_listeners: List = []
        #: Optional stop condition: set by the system when a departure
        #: quota is reached.
        self.stop_event: Optional[Event] = None
        self.max_departures: Optional[int] = None

        # Utilisation snapshots for the policy's batch feedback.
        self._batch_snapshots = self._take_snapshots()
        self._reallocating = False
        #: Optional :class:`repro.rtdbs.invariants.InvariantChecker`;
        #: ``None`` (the default) keeps the hot paths hook-free.
        self.invariants = None

    # -- departure counters live on the broker --------------------------
    @property
    def departures(self) -> int:
        return self.broker.departures

    @property
    def completions(self) -> int:
        return self.broker.completions

    @property
    def misses(self) -> int:
        return self.broker.misses

    @property
    def batches_delivered(self) -> int:
        return self.broker.batches_delivered

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------
    def submit(self, job: QueryJob) -> None:
        """A new query arrives: register, arm its expiry, reallocate."""
        if job.qid in self._jobs:
            raise ValueError(f"duplicate query id {job.qid}")
        # Demands are capped at the pool size so an oversized query can
        # still run (in multiple passes) rather than starve forever.
        job.demand_max = min(job.operator.max_pages, self.buffers.total_pages)
        job.demand_min = min(job.operator.min_pages, job.demand_max)
        self._jobs[job.qid] = job
        self.broker.register(
            job.qid, job.class_name, job.priority, job.demand_min, job.demand_max
        )
        self.present_monitor.add(1)
        if self.config.firm_deadlines:
            delay = max(0.0, job.deadline - self.sim.now)
            timer = self.sim.timeout(delay)
            timer.callbacks.append(lambda _evt, j=job: self._expire(j))
            job.expiry_timer = timer
        self.reallocate()

    @property
    def present_jobs(self) -> List[QueryJob]:
        """All present queries in ED order."""
        return sorted(self._jobs.values(), key=lambda job: (job.deadline, job.qid))

    @property
    def admitted_count(self) -> int:
        """Queries currently holding memory."""
        return sum(1 for job in self._jobs.values() if job.grant.pages > 0)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def reallocate(self) -> None:
        """Ask the broker for a fresh allocation decision and enact it.

        Grants are enacted in the decision's ED order -- the order the
        pre-broker code walked the population in -- so process creation
        and wake-ups interleave identically and fixed-seed runs stay
        bit-identical.
        """
        if self._reallocating:  # defensive: no re-entrant allocation
            return
        self._reallocating = True
        try:
            decision = self.broker.reallocate(now=self.sim.now)
            allocation = decision.allocation
            self.buffers.apply_allocation(allocation)
            jobs = self._jobs
            for qid in decision.order:
                job = jobs[qid]
                pages = allocation.get(qid, 0)
                if job.state == WAITING and pages > 0:
                    self._admit(job, pages)
                elif job.state == RUNNING:
                    job.grant.set(pages)
            self.mpl_monitor.record(self.admitted_count)
        finally:
            self._reallocating = False

    def _admit(self, job: QueryJob, pages: int) -> None:
        job.state = RUNNING
        job.admit_time = self.sim.now
        job.grant.set(pages)
        job.grant.started = True  # fluctuations count from here on
        job.process = self.sim.process(self._drive(job), name=f"query-{job.qid}")
        job.process.callbacks.append(lambda _evt, j=job: self._finished(j))

    # ------------------------------------------------------------------
    # operator driving
    # ------------------------------------------------------------------
    def _drive(self, job: QueryJob):
        """Translate the operator's request stream into resource usage."""
        start_io = self.config.cpu_costs.start_io
        cpu = self.cpu
        disks = self.disks
        pool = self.buffers.cache  # the LRU region, probed per cacheable read
        priority = job.priority  # the deadline: fixed for the job's life
        op: Optional[_DiskOp] = None  # lazily created, reused per block
        try:
            for request in job.operator.run():
                request_type = type(request)
                if request_type is DiskAccess:
                    cacheable_read = request.kind == READ and request.cacheable
                    if cacheable_read and pool.contains_all(
                        request.disk, request.start_page, request.npages
                    ):
                        # Served from the buffer pool: no I/O, but the
                        # attached per-block processing burst still runs.
                        if request.cpu > 0.0:
                            handle = cpu.execute(request.cpu, priority)
                            job.pending = handle
                            yield handle
                            job.pending = None
                        continue
                    if op is None:
                        op = _DiskOp(self.sim, cpu, priority)
                    op.begin(disks[request.disk], request, start_io)
                    job.pending = op
                    yield op
                    job.pending = None
                    if cacheable_read:
                        pool.insert(request.disk, request.start_page, request.npages)
                elif request_type is CPUBurst:
                    handle = cpu.execute(request.instructions, priority)
                    if not handle.triggered:  # zero-work bursts skip the queue
                        job.pending = handle
                        yield handle
                    job.pending = None
                elif request_type is AllocationWait:
                    if job.grant.pages > 0:
                        continue  # raced with a re-grant: keep going
                    wake = self.sim.event()
                    job.grant.on_change(lambda evt=wake: evt.succeed(None))
                    job.pending = wake
                    yield wake
                    job.pending = None
                else:  # pragma: no cover - operator contract violation
                    raise TypeError(f"unknown operator request {request!r}")
        except Interrupt:
            # Firm-deadline abort: fall through, _expire() cleans up.
            return

    # ------------------------------------------------------------------
    # departures
    # ------------------------------------------------------------------
    def _finished(self, job: QueryJob) -> None:
        """The operator ran to completion."""
        if job.state not in (RUNNING,):
            return  # already aborted
        if job.process is not None and not job.process.ok:
            raise job.process.value  # surface model bugs immediately
        job.state = DONE
        if job.expiry_timer is not None:
            job.expiry_timer.cancel()
        missed = self.sim.now > job.deadline + 1e-9
        self._depart(job, missed=missed)

    def _expire(self, job: QueryJob) -> None:
        """Firm deadline reached: the query loses all value [Hari90]."""
        if job.state in (DONE, ABORTED):
            return
        was_running = job.state == RUNNING
        job.state = ABORTED
        pending = job.pending
        if pending is not None:
            if type(pending) is _DiskOp:
                pending.cancel_op()
            elif isinstance(pending, ServiceRequest):
                self.cpu.cancel(pending)
            else:
                pending.cancel()  # allocation-wait wake event
            job.pending = None
        if was_running and job.process is not None:
            job.process.interrupt("deadline")
        self._depart(job, missed=True)

    def _depart(self, job: QueryJob, missed: bool) -> None:
        job.operator.release_resources()
        self.buffers.release(job.qid)
        del self._jobs[job.qid]
        self.broker.release(job.qid)
        self.present_monitor.add(-1)

        now = self.sim.now
        if job.admit_time is None:
            waiting = now - job.arrival
            execution = 0.0
        else:
            waiting = job.admit_time - job.arrival
            execution = now - job.admit_time
        record = DepartureRecord(
            qid=job.qid,
            class_name=job.class_name,
            missed=missed,
            arrival=job.arrival,
            departure=now,
            waiting_time=waiting,
            execution_time=execution,
            time_constraint=job.time_constraint,
            max_demand=job.demand_max,
            min_demand=job.demand_min,
            operand_io_count=job.operator.operand_io_count,
            memory_fluctuations=job.grant.fluctuations,
        )

        self.broker.note_departure(missed)

        for listener in self.departure_listeners:
            listener(record)
        window = self.broker.departure_feedback(record)
        if self.invariants is not None:
            self.invariants.check_population(self)

        if window is not None:
            self._close_batch(window)

        self.reallocate()

        if (
            self.max_departures is not None
            and self.departures >= self.max_departures
            and self.stop_event is not None
            and not self.stop_event.triggered
        ):
            self.stop_event.succeed(None)

    # ------------------------------------------------------------------
    # batch feedback
    # ------------------------------------------------------------------
    def _take_snapshots(self) -> Dict[str, object]:
        return {
            "cpu": self.cpu.busy.snapshot(),
            "disks": [disk.busy.snapshot() for disk in self.disks],
            "mpl": self.mpl_monitor.snapshot(),
            "pool": (self.buffers.cache.hits, self.buffers.cache.misses),
        }

    def _close_batch(self, window) -> None:
        """Build the batch telemetry only this host can measure and
        hand it to the broker (which forwards it to the policy)."""
        snapshots = self._batch_snapshots
        pool_hits, pool_misses = snapshots.get("pool", (0, 0))
        consulted = (self.buffers.cache.hits - pool_hits) + (
            self.buffers.cache.misses - pool_misses
        )
        stats = BatchStats(
            time=self.sim.now,
            served=window.served,
            missed=window.missed,
            realized_mpl=self.mpl_monitor.mean_since(snapshots["mpl"]),
            cpu_utilization=min(1.0, self.cpu.busy.mean_since(snapshots["cpu"])),
            disk_utilizations=tuple(
                min(1.0, disk.busy.mean_since(snapshot))
                for disk, snapshot in zip(self.disks, snapshots["disks"])
            ),
            pool_hit_ratio=(
                (self.buffers.cache.hits - pool_hits) / consulted if consulted else 0.0
            ),
        )
        self._batch_snapshots = self._take_snapshots()
        self.broker.deliver_batch(stats)
        # reallocate() runs unconditionally right after in _depart().
