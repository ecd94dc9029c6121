"""Spans around the program's public entry points, from outside it.

:class:`Tracer` patches wrappers onto the classes and module functions
a traced run exercises, records one span per call -- name, start, end,
parent span and query id -- in flat in-memory arrays, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing is patched unless
:meth:`Tracer.install` runs, so an untraced run executes the program
exactly as shipped.

Parents come from a :class:`contextvars.ContextVar`, which asyncio
copies into every task, so a disk wait opened inside a query's task is
that query's child even while other tasks interleave.  An operator's
``run`` generator is recorded as one span per resumption (the time the
operator's own code ran), not one span over its lifetime, so self time
stays meaningful under interleaving.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import statistics
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Marker attribute set on every installed wrapper.
WRAPPED = "__perfbench_wrapped__"

#: Every tracemalloc-sampled call is one in this many.
ALLOC_SAMPLE_EVERY = 25

_now = time.perf_counter_ns


def _mark(wrapper: Callable, original: Callable) -> Callable:
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, WRAPPED, True)
    return wrapper


def _subclasses(root: type) -> List[type]:
    found, stack = [], [root]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def patch_targets(modules) -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every entry point a traced
    run wraps, in one import of the program (``modules`` is what the
    workloads imported)."""
    targets: List[Tuple[object, str, str]] = [
        (modules.system.RTDBSystem, "run", "sim.run"),
        (modules.broker.MemoryBroker, "reallocate", "broker.reallocate"),
        (modules.allocation.QueryDemand, "__init__", "broker.demands"),
        (modules.devices.DeviceCore, "select", "devices.select"),
        (modules.devices.DeviceCore, "service_time", "devices.service_time"),
        (modules.gateway.LiveGateway, "submit", "gateway.submit"),
        (modules.gateway.LiveGateway, "_run_query", "gateway.query"),
        (modules.dataplane.LiveDisk, "acquire", "dataplane.acquire"),
        (modules.router.ShardLink, "request", "router.link_request"),
        (modules.workload, "build_schedule", "workload.build_schedule"),
    ]
    for cls in _subclasses(modules.policy_base.MemoryPolicy):
        if "allocate" in vars(cls):
            targets.append((cls, "allocate", "policy.allocate"))
    for cls in _subclasses(modules.operator_base.Operator):
        if "run" in vars(cls):
            targets.append((cls, "run", "queries.run"))
    return targets


def installed_wrappers(modules) -> List[str]:
    """Names of the patch targets that currently hold a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name in patch_targets(modules)
        if getattr(getattr(owner, attr), WRAPPED, False)
    ]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_qid = array("q")
        self.counts: Counter = Counter()
        #: Per-call side values (population at each decision, sampled
        #: allocation blocks, submit lag, ...).
        self.values: Dict[str, List[float]] = defaultdict(list)
        #: Reallocate span index -> present population at the call.
        self.realloc_pop: Dict[int, int] = {}
        #: Spans timed under tracemalloc: kept in the trace, left out
        #: of every timing summary.
        self.sampled: set = set()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._qid = contextvars.ContextVar("perfbench_qid", default=-1)
        self._patches: List[Tuple[object, str, object]] = []
        #: Which wrapper owns the running tracemalloc sample, if any.
        self._sampling: Optional[str] = None

    # ------------------------------------------------------------------
    # span store
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, name_id: int, qid: int = -1):
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._current.get())
        self.span_qid.append(qid if qid >= 0 else self._qid.get())
        self.span_end.append(0)
        if self._sampling is not None:
            self.sampled.add(index)
        self.span_start.append(_now())
        return index, self._current.set(index)

    def _close(self, index: int, token) -> None:
        self.span_end[index] = _now()
        self._current.reset(token)

    def __len__(self) -> int:
        return len(self.span_name)

    def duration_us(self, index: int) -> float:
        return (self.span_end[index] - self.span_start[index]) / 1e3

    def durations_us(self, name: str) -> List[float]:
        """Durations of every ``name`` span not timed under a
        tracemalloc sample."""
        ident = self._name_ids.get(name)
        if ident is None:
            return []
        sampled = self.sampled
        return [
            self.duration_us(i)
            for i, n in enumerate(self.span_name)
            if n == ident and i not in sampled
        ]

    def self_time_us(self, name: str) -> float:
        """Total self time of ``name`` spans: each span's duration
        minus the union of its direct children's intervals."""
        ident = self._name_ids.get(name)
        if ident is None:
            return 0.0
        wanted = {i for i, n in enumerate(self.span_name) if n == ident}
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for i, parent in enumerate(self.span_parent):
            if parent in wanted:
                children[parent].append((self.span_start[i], self.span_end[i]))
        total = 0
        for i in wanted:
            covered, reach = 0, None
            for start, end in sorted(children[i]):
                if reach is None or start > reach:
                    covered += end - start
                    reach = end
                elif end > reach:
                    covered += end - reach
                    reach = end
            total += (self.span_end[i] - self.span_start[i]) - covered
        return total / 1e3

    def write(self, path) -> None:
        """Write every span as one gzipped tab-separated line: name,
        start (ns after the first span), duration (ns), parent span's
        line number (-1 for none) and query id (-1 for none)."""
        names, start, end = self.names, self.span_start, self.span_end
        origin = start[0] if start else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tduration_ns\tparent\tqid\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{names[self.span_name[i]]}\t{start[i] - origin}\t"
                    f"{end[i] - start[i]}\t{self.span_parent[i]}\t"
                    f"{self.span_qid[i]}\n"
                )

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, _mark(wrapper, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, modules) -> None:
        """Wrap every entry point of :func:`patch_targets`; spans whose
        calls carry more than timing get their own wrapper."""
        special = {
            "sim.run": self._wrap_sim_run,
            "broker.reallocate": self._wrap_reallocate,
            "broker.demands": self._wrap_count,
            "policy.allocate": self._wrap_allocate,
            "queries.run": self._wrap_operator,
            "gateway.submit": self._wrap_submit,
            "gateway.query": self._wrap_query,
            "dataplane.acquire": self._wrap_async,
            "router.link_request": self._wrap_link,
        }
        for owner, attr, name in patch_targets(modules):
            wrap = special.get(name, self._wrap_sync)
            self._patch(owner, attr, wrap(getattr(owner, attr), name))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_sync(self, original, name: str):
        ident = self._name_id(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            index, token = self._open(ident)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, token)

        return wrapper

    def _wrap_async(self, original, name: str):
        ident = self._name_id(name)
        counts = self.counts

        async def wrapper(*args, **kwargs):
            counts[name] += 1
            index, token = self._open(ident)
            try:
                return await original(*args, **kwargs)
            finally:
                self._close(index, token)

        return wrapper

    def _wrap_count(self, original, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _wrap_sim_run(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        def wrapper(system, *args, **kwargs):
            tracer.counts[name] += 1
            before = system.sim.events_processed
            index, token = tracer._open(ident)
            try:
                result = original(system, *args, **kwargs)
            finally:
                tracer._close(index, token)
            tracer.counts["sim.events"] += system.sim.events_processed - before
            tracer.counts["sim.served"] += result.served
            return result

        return wrapper

    def _blocks(self) -> int:
        return len(tracemalloc.take_snapshot().traces)

    def _wrap_reallocate(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        def wrapper(broker, *args, **kwargs):
            tracer.counts[name] += 1
            sample = (
                not tracer._sampling
                and tracer.counts[name] % ALLOC_SAMPLE_EVERY == 0
            )
            index, token = tracer._open(ident)
            tracer.realloc_pop[index] = broker.present_count
            if sample:
                tracer.sampled.add(index)
                tracer._sampling = "broker"
                tracemalloc.start()
                tracer.values["broker.peak_blocks"].append(0)
            try:
                return original(broker, *args, **kwargs)
            finally:
                if sample:
                    peaks = tracer.values["broker.peak_blocks"]
                    peaks[-1] = max(peaks[-1], tracer._blocks())
                    tracemalloc.stop()
                    tracer._sampling = None
                tracer._close(index, token)

        return wrapper

    def _wrap_allocate(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._current.get()
            if parent >= 0 and tracer.span_name[parent] == ident:
                return original(*args, **kwargs)  # super().allocate()
            tracer.counts[name] += 1
            sampling = tracer._sampling == "broker"
            if sampling:
                peaks = tracer.values["broker.peak_blocks"]
                peaks[-1] = max(peaks[-1], tracer._blocks())
            index, token = tracer._open(ident)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index, token)
                if sampling:
                    peaks[-1] = max(peaks[-1], tracer._blocks())

        return wrapper

    def _wrap_operator(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        def wrapper(operator, *args, **kwargs):
            inner = original(operator, *args, **kwargs)
            tracer.counts["queries.operators"] += 1
            return tracer._resumptions(inner, ident)

        return wrapper

    def _resumptions(self, inner, ident: int):
        """Re-yield ``inner``'s requests, one span per resumption."""
        counts = self.counts
        value, error = None, None
        while True:
            index, token = self._open(ident)
            try:
                if error is not None:
                    pending, error = error, None
                    request = inner.throw(pending)
                else:
                    request = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(index, token)
            counts["queries.requests"] += 1
            try:
                value = yield request
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as thrown:  # forwarded into the operator
                value, error = None, thrown

    def _wrap_submit(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        def wrapper(gateway, arrival, *args, **kwargs):
            tracer.counts[name] += 1
            loop = gateway._loop
            if loop is not None:
                due = gateway._t0 + arrival.arrival * gateway.time_scale
                tracer.values["gateway.submit_lag_ms"].append(
                    (loop.time() - due) * 1e3
                )
            sample = (
                not tracer._sampling
                and tracer.counts[name] % ALLOC_SAMPLE_EVERY == 0
            )
            if sample:
                tracer._sampling = "submit"
                tracemalloc.start()
            index, token = tracer._open(ident, arrival.qid)
            if sample:
                tracer.sampled.add(index)
            try:
                return original(gateway, arrival, *args, **kwargs)
            finally:
                tracer._close(index, token)
                if sample:
                    tracer.values["gateway.submit_blocks"].append(tracer._blocks())
                    tracemalloc.stop()
                    tracer._sampling = None

        return wrapper

    def _wrap_query(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        async def wrapper(gateway, job, *args, **kwargs):
            qid_token = tracer._qid.set(job.arrival.qid)
            index, token = tracer._open(ident, job.arrival.qid)
            try:
                return await original(gateway, job, *args, **kwargs)
            finally:
                tracer._close(index, token)
                tracer._qid.reset(qid_token)

        return wrapper

    def _wrap_link(self, original, name: str):
        ident = self._name_id(name)
        tracer = self

        async def wrapper(link, payload, *args, **kwargs):
            tracer.counts[name] += 1
            started = _now()
            index, token = tracer._open(ident)
            try:
                response = await original(link, payload, *args, **kwargs)
            finally:
                tracer._close(index, token)
            if payload.get("op", "submit") == "submit":
                tracer.counts["router.link_bytes"] += len(_encode(payload)) + len(
                    _encode(response)
                )
                if response.get("shed"):
                    tracer.values["router.shed_rtt_us"].append(
                        (_now() - started) / 1e3
                    )
            return response

        return wrapper


def _encode(message: dict) -> bytes:
    import json

    return json.dumps(message).encode() + b"\n"


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
