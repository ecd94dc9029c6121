"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --calib-ref-ms 70.0 --workload des-paper --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` runs the workload twice on the same inputs,
untraced and then traced (each leg at ``trace_share`` of the budget),
and prints the per-layer metrics (plus the tracing overhead between
the two legs); the spans are written to
``.perfbench-traces/<workload>.tsv.gz`` in the checkout.

Human-readable lines come first -- every time metric raw beside its
host-normalised value, the operating point, each check's verdict --
and the last line is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"setup_s": {"value": 0.31, "unit": "s"}, ...}}

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calib import Calibration  # noqa: E402
from tracing import Tracer, mean, median, percentile  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_ms_per_query", "ms"),
    ("goodput_qps", "queries/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, printed with ``--trace 1``.
#: A layer a workload does not exercise reads 0 (and ``.n`` 0).
PER_LAYER = (
    ("sim.events_per_query", "count"),
    ("sim.self_ms_per_query", "ms"),
    ("rtdbs.buffer_hit_ratio", "ratio"),
    ("rtdbs.disk_util", "ratio"),
    ("rtdbs.miss_ratio", "ratio"),
    ("devices.select.calls_per_query", "count"),
    ("devices.select.us_mean", "us"),
    ("devices.service_time.calls_per_query", "count"),
    ("broker.reallocate.calls_per_query", "count"),
    ("broker.reallocate.us_p50", "us"),
    ("broker.reallocate.us_p95", "us"),
    ("broker.reallocate.n", "count"),
    ("broker.reallocate.us_by_pop.le4", "us"),
    ("broker.reallocate.us_by_pop.5-16", "us"),
    ("broker.reallocate.us_by_pop.17-64", "us"),
    ("broker.reallocate.us_by_pop.gt64", "us"),
    ("broker.population_mean", "count"),
    ("broker.demands_per_decision", "count"),
    ("broker.alloc_blocks_per_decision", "count"),
    ("policy.allocate.us_p50", "us"),
    ("policy.allocate.share_of_reallocate", "ratio"),
    ("queries.requests_per_query", "count"),
    ("gateway.submit.us_p50", "us"),
    ("gateway.submit.us_p95", "us"),
    ("gateway.submit.n", "count"),
    ("gateway.decision_us_mean", "us"),
    ("gateway.observed_mpl", "count"),
    ("gateway.cpu_util", "ratio"),
    ("gateway.alloc_blocks_per_query", "count"),
    ("gateway.fidelity_delta", "ratio"),
    ("dataplane.pool_hit_ratio", "ratio"),
    ("dataplane.bytes_per_query", "bytes"),
    ("dataplane.disk_wait_ms_per_query", "ms"),
    ("dataplane.disk_busy_share", "ratio"),
    ("router.link_rtt_us_p50", "us"),
    ("router.link_rtt_us_p90", "us"),
    ("router.link_rtt.n", "count"),
    ("client.shed_rtt_us_p50", "us"),
    ("client.shed_rtt_us_p90", "us"),
    ("client.shed_rtt.n", "count"),
    ("router.wire_bytes_per_query", "bytes"),
    ("router.shed_ratio", "ratio"),
    ("router.migrations", "count"),
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_p95", "ms"),
    ("loadgen.lag.n", "count"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("setup.start_s", "s"),
    ("host.calib_ms", "ms"),
    ("host.norm", "ratio"),
    ("trace.overhead_pct", "%"),
)

#: How strongly each time metric follows the calibration kernel between
#: the host's slow and fast phases, per workload (README.md, "Host
#: normalisation"): the reported value is raw x (reference / measured)
#: ** elasticity.  The simulator and set-up follow the kernel in
#: proportion; the paced workloads' CPU per query, mostly woken from
#: idle, less steeply; their goodput is set by the schedule.
ELASTICITY = {
    "setup_s": {"des-paper": 1.0, "live-wide": 1.0, "routed-tenants": 1.0},
    "cpu_ms_per_query": {"des-paper": 1.0, "live-wide": 0.6, "routed-tenants": 0.6},
    "goodput_qps": {"des-paper": 1.0, "live-wide": 0.0, "routed-tenants": 0.0},
}

TRACE_DIR = ROOT / ".perfbench-traces"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, inputs, calib, timings):
    """One timed set-up: import, build, start.  Appends its phase
    times to ``timings`` and returns ``(modules, context)``."""
    calib.slice()
    t0 = time.perf_counter()
    modules = workloads.import_program()
    t1 = time.perf_counter()
    ctx = workload.build(modules, inputs)
    t2 = time.perf_counter()
    workload.start(modules, ctx)
    t3 = time.perf_counter()
    timings.append((t1 - t0, t2 - t1, t3 - t2))
    return modules, ctx


def leg(workload, modules, ctx, calib, model: bool):
    """Measure one pass and run its checks; always stops the context."""
    outcome = workloads.Outcome()
    try:
        workload.measure(modules, ctx, calib, outcome)
        workload.verify(modules, ctx, outcome, model)
    finally:
        workload.stop(modules, ctx)
    return outcome


def end_to_end(name, outcome, setups, calib, reference_ms):
    """``{metric: (reported, raw)}`` for the end-to-end table."""
    raw = {
        "setup_s": statistics.median(sum(phases) for phases in setups),
        "cpu_ms_per_query": outcome.cpu_s * 1e3 / max(outcome.served, 1),
        "goodput_qps": outcome.completed / max(outcome.window_s or outcome.wall_s, 1e-9),
        "peak_rss_mb": peak_rss_mb(),
    }
    factor = {
        "setup_s": calib.norm(reference_ms, "wall", ELASTICITY["setup_s"][name]),
        "cpu_ms_per_query": calib.norm(
            reference_ms, "cpu", ELASTICITY["cpu_ms_per_query"][name]),
        # A rate: divided by the factor that would scale its time.
        "goodput_qps": 1.0 / calib.norm(
            reference_ms, "wall", ELASTICITY["goodput_qps"][name]),
        "peak_rss_mb": 1.0,
    }
    return {metric: (value * factor[metric], value) for metric, value in raw.items()}


def _bin(population: int) -> str:
    if population <= 4:
        return "le4"
    if population <= 16:
        return "5-16"
    if population <= 64:
        return "17-64"
    return "gt64"


def per_layer(tracer, traced, untraced, setups, calib, reference_ms):
    """Every per-layer metric from the traced leg (operating-point
    shares from the untraced one); 0 where a layer did no work."""
    counts, values, facts = tracer.counts, tracer.values, traced.facts
    queries = max(traced.served, 1)
    realloc = tracer.durations_us("broker.reallocate")
    policy = tracer.durations_us("policy.allocate")
    submit = tracer.durations_us("gateway.submit")
    select = tracer.durations_us("devices.select")
    by_pop = {"le4": [], "5-16": [], "17-64": [], "gt64": []}
    pops = []
    for index, population in tracer.realloc_pop.items():
        pops.append(population)
        if index not in tracer.sampled:
            by_pop[_bin(population)].append(tracer.duration_us(index))
    link_shed = values.get("router.shed_rtt_us", [])
    client_shed = traced.samples.get("shed_rtt_us", [])
    lag = traced.samples.get("lag_ms") or values.get("gateway.submit_lag_ms", [])
    sim_served = max(counts["sim.served"], 1)
    disk_wait_ms = sum(tracer.durations_us("dataplane.acquire")) / 1e3
    norm_wall = calib.norm(reference_ms, "wall")
    untraced_cpu = untraced.cpu_s / max(untraced.served, 1)
    traced_cpu = traced.cpu_s / max(traced.served, 1)
    disk_seconds = facts.get("disk_wall_s") or facts.get("disk_count", 0) * traced.wall_s
    metrics = {
        "sim.events_per_query": counts["sim.events"] / sim_served,
        "sim.self_ms_per_query": tracer.self_time_us("sim.run") / 1e3 / sim_served,
        "rtdbs.buffer_hit_ratio": facts.get("buffer_hit_ratio", 0.0),
        "rtdbs.disk_util": facts.get("disk_util", 0.0),
        "rtdbs.miss_ratio": facts.get("miss_ratio", 0.0),
        "devices.select.calls_per_query": counts["devices.select"] / queries,
        "devices.select.us_mean": mean(select),
        "devices.service_time.calls_per_query": counts["devices.service_time"] / queries,
        "broker.reallocate.calls_per_query": len(realloc) / queries,
        "broker.reallocate.us_p50": median(realloc),
        "broker.reallocate.us_p95": percentile(realloc, 95),
        "broker.reallocate.n": len(realloc),
        "broker.population_mean": mean(pops),
        "broker.demands_per_decision": counts["broker.demands"] / max(len(realloc), 1),
        "broker.alloc_blocks_per_decision": mean(values.get("broker.peak_blocks", [])),
        "policy.allocate.us_p50": median(policy),
        "policy.allocate.share_of_reallocate": sum(policy) / max(sum(realloc), 1e-9),
        "queries.requests_per_query": counts["queries.requests"]
        / max(counts["queries.operators"], 1),
        "gateway.submit.us_p50": median(submit),
        "gateway.submit.us_p95": percentile(submit, 95),
        "gateway.submit.n": len(submit),
        "gateway.decision_us_mean": facts.get("decision_s", 0.0)
        * 1e6 / max(facts.get("decisions", 0), 1),
        "gateway.observed_mpl": facts.get("mpl", 0.0),
        "gateway.cpu_util": untraced.operating_point.get("cpu_util", 0.0),
        "gateway.alloc_blocks_per_query": mean(values.get("gateway.submit_blocks", [])),
        "gateway.fidelity_delta": (
            facts["live_miss_ratio"] - untraced.facts["des_miss_ratio"]
            if "des_miss_ratio" in untraced.facts else 0.0
        ),
        "dataplane.pool_hit_ratio": facts.get("pool_hits", 0.0)
        / max(facts.get("pool_consulted", 0.0), 1),
        "dataplane.bytes_per_query": facts.get("bytes", 0.0) / queries,
        "dataplane.disk_wait_ms_per_query": disk_wait_ms / queries,
        "dataplane.disk_busy_share": facts.get("disk_busy_s", 0.0) / max(disk_seconds, 1e-9),
        "router.link_rtt_us_p50": median(link_shed),
        "router.link_rtt_us_p90": percentile(link_shed, 90),
        "router.link_rtt.n": len(link_shed),
        "client.shed_rtt_us_p50": median(client_shed),
        "client.shed_rtt_us_p90": percentile(client_shed, 90),
        "client.shed_rtt.n": len(client_shed),
        "router.wire_bytes_per_query": (
            facts.get("wire_bytes", 0) + counts["router.link_bytes"]
        ) / max(traced.attempted, 1),
        "router.shed_ratio": facts.get("shed", 0) / max(traced.attempted, 1),
        "router.migrations": facts.get("migrations", 0),
        "loadgen.lag_ms_p50": median(lag),
        "loadgen.lag_ms_p95": percentile(lag, 95),
        "loadgen.lag.n": len(lag),
        "setup.import_s": statistics.median(s[0] for s in setups) * norm_wall,
        "setup.build_s": statistics.median(s[1] for s in setups) * norm_wall,
        "setup.start_s": statistics.median(s[2] for s in setups) * norm_wall,
        "host.calib_ms": calib.mean_cpu_ms,
        "host.norm": calib.norm(reference_ms, "cpu"),
        "trace.overhead_pct": (traced_cpu / untraced_cpu - 1.0) * 100.0
        if untraced_cpu > 0 else 0.0,
    }
    for bin_name, durations in by_pop.items():
        metrics[f"broker.reallocate.us_by_pop.{bin_name}"] = median(durations)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        reference_ms: float) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    calib = Calibration()
    budget = seconds * workload.trace_share if trace else seconds
    inputs = workload.inputs(workloads.import_program(), seed, budget)
    setups = []
    for rep in range(SETUP_REPS):
        modules, ctx = set_up(workload, inputs, calib, setups)
        if rep < SETUP_REPS - 1:
            workload.stop(modules, ctx)
    untraced = leg(workload, modules, ctx, calib, model=True)
    outcomes = [untraced]
    if trace:
        tracer = Tracer()
        tracer.install(modules)
        try:
            ctx = workload.build(modules, inputs)
            workload.start(modules, ctx)
            traced = leg(workload, modules, ctx, calib, model=False)
        finally:
            tracer.uninstall()
        outcomes.append(traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{workload_name}.tsv.gz")
        metrics = per_layer(tracer, traced, untraced, setups, calib, reference_ms)
        for name, unit in PER_LAYER:
            print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
        print(f"spans: {len(tracer)} written to {TRACE_DIR.name}/")
    else:
        rows = end_to_end(workload_name, untraced, setups, calib, reference_ms)
        units = dict(END_TO_END)
        print(f"  {'metric':<20} {'reported':>12} {'raw':>12}  unit")
        for name, (value, raw) in rows.items():
            print(f"  {name:<20} {value:>12.6g} {raw:>12.6g}  {units[name]}")
        metrics = {name: value for name, (value, _raw) in rows.items()}
        raw = {name: raw for name, (_value, raw) in rows.items()}
        raw["host.calib_ms"] = calib.mean_cpu_ms
        print("raw " + json.dumps(raw))
    print(
        f"calibration: {len(calib.cpu_ms)} slices, mean {calib.mean_cpu_ms:.3f} ms "
        f"cpu / {calib.mean_wall_ms:.3f} ms wall, reference {reference_ms} ms"
    )
    print("operating point: " + json.dumps(untraced.operating_point, sort_keys=True))
    for outcome in outcomes:
        for check, ok in sorted(outcome.checks.items()):
            print(f"check {check}: {'pass' if ok else 'FAIL'}")
        for note in outcome.notes:
            print(f"  {note}")
    return {
        "correct": all(bool(o.checks) and all(o.checks.values()) for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in (PER_LAYER if trace else END_TO_END)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("des-paper", "live-wide", "routed-tenants"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calib-ref-ms", type=float, required=True,
                        help="calibration slice time on the reference host")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One CPU for the whole run, so the calibration slices sample the
    # same core's slow and fast phases as the workload.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.calib_ref_ms)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
