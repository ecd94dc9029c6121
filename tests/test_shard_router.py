"""The sharded serve layer: config slicing, the consistent-hash ring,
router conservation over real TCP, rebalancer migration under forced
skew, drain-through-router semantics, and refusals (dead shard link,
over-limit request lines) that fail one request, not the link, and
shard processes that die with their router."""

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.scenarios import ScenarioGenerator
from repro.serve.frontend import REQUEST_LIMIT
from repro.serve.gateway import LiveGateway
from repro.serve.router import LINE_LIMIT, HashRing, ShardRouter
from repro.serve.server import LiveServer
from repro.serve.shard import shard_config, split_evenly
from repro.serve.shootout import find_multitenant_scenario


def two_tenant_config():
    return find_multitenant_scenario(ScenarioGenerator(0), 2).config


# ----------------------------------------------------------------------
# resource slicing
# ----------------------------------------------------------------------
def test_split_evenly_conserves_with_remainder_low():
    assert split_evenly(10, 3) == [4, 3, 3]
    assert split_evenly(4, 2) == [2, 2]
    assert split_evenly(7, 7) == [1] * 7
    assert sum(split_evenly(154, 3)) == 154
    with pytest.raises(ValueError):
        split_evenly(5, 0)


def test_shard_config_identity_at_one():
    config = two_tenant_config()
    assert shard_config(config, 0, 1) is config  # byte-identical path


def test_shard_config_slices_conserve_resources():
    config = two_tenant_config()
    shards = 2
    slices = [shard_config(config, i, shards) for i in range(shards)]
    assert (
        sum(s.resources.num_disks for s in slices)
        == config.resources.num_disks
    )
    assert (
        sum(s.resources.memory_pages for s in slices)
        == config.resources.memory_pages
    )
    for sliced in slices:
        sliced.validate()  # every shard is a runnable config
        # The workload definition stays global: any shard serves any
        # tenant, prices deadlines with the same classes.
        assert sliced.workload == config.workload
        assert sliced.seed == config.seed


def test_shard_config_rejects_bad_splits():
    config = two_tenant_config()
    with pytest.raises(ValueError):
        shard_config(config, 2, 2)  # id out of range
    with pytest.raises(ValueError):
        shard_config(config, -1, 2)
    with pytest.raises(ValueError):
        shard_config(config, 0, 0)
    too_many = config.resources.num_disks + 1
    with pytest.raises(ValueError, match="disk"):
        shard_config(config, 0, too_many)


# ----------------------------------------------------------------------
# placement determinism
# ----------------------------------------------------------------------
def test_hash_ring_deterministic_in_seed():
    tenants = [f"tenant{i}" for i in range(100)]
    first = HashRing(4, seed=7)
    second = HashRing(4, seed=7)
    placements = [first.place(t) for t in tenants]
    assert placements == [second.place(t) for t in tenants]
    # The ring spreads tenants, it does not degenerate to one shard.
    assert len(set(placements)) > 1
    # A different seed is a different ring.
    other = HashRing(4, seed=8)
    assert placements != [other.place(t) for t in tenants]


def test_hash_ring_rejects_empty():
    with pytest.raises(ValueError):
        HashRing(0)


# ----------------------------------------------------------------------
# the routed farm, in process over real TCP
# ----------------------------------------------------------------------
async def _start_farm(
    policy="pmm", time_scale=0.01, shards=2, **router_kwargs
):
    """N in-process shard servers on shard_config slices + the router."""
    config = two_tenant_config()
    servers, endpoints = [], []
    for shard_id in range(shards):
        gateway = LiveGateway(
            shard_config(config, shard_id, shards),
            policy,
            time_scale=time_scale,
        )
        server = LiveServer(gateway, shard=(shard_id, shards))
        host, port = await server.start(port=0)
        servers.append(server)
        endpoints.append((host, port))
    router = ShardRouter(endpoints, ring_seed=config.seed, **router_kwargs)
    address = await router.start()
    return config, servers, router, address


async def _stop_farm(servers, router):
    await router.close()
    for server in servers:
        await server.close()


async def _request(writer, reader, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_router_conserves_across_two_shards_with_concurrent_tenants():
    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0  # placement fixed: pure ring
        )
        try:

            async def tenant_client(tenant, count):
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    hello = await _request(
                        writer, reader, {"op": "hello", "tenant": tenant}
                    )
                    responses = []
                    for index in range(count):
                        response = await _request(
                            writer,
                            reader,
                            {
                                "op": "submit",
                                "type": "sort",
                                "pages": 8,
                                "slack": 50.0,
                                "tag": f"{tenant}-{index}",
                            },
                        )
                        responses.append(response)
                    return hello, responses
                finally:
                    writer.close()

            results = await asyncio.gather(
                tenant_client("tenant0", 3), tenant_client("tenant1", 3)
            )
            stats = await router.stats()
            return results, stats
        finally:
            await _stop_farm(servers, router)

    results, stats = asyncio.run(scenario())
    for hello, responses in results:
        assert hello["shard"] in (0, 1)
        for index, response in enumerate(responses):
            assert "error" not in response, response
            # Tag correlation and shard attribution on every response.
            assert response["tag"].endswith(str(index))
            assert response["shard"] == hello["shard"]
    conservation = stats["conservation"]
    assert conservation["ok"], conservation
    assert conservation["complete"], conservation
    assert stats["arrivals"] == 6
    assert stats["per_tenant"] == {"tenant0": 3, "tenant1": 3}
    assert sum(stats["routed"]) == 6
    # Router counters agree with what the shards themselves report.
    assert (
        sum(s["arrivals"] for s in stats["shards"]) == stats["arrivals"]
    )
    for shard_stats in stats["shards"]:
        assert shard_stats["served"] + shard_stats["shed"] == shard_stats[
            "arrivals"
        ]


def test_rebalancer_migrates_off_forced_skew():
    """Both tenants packed on shard 0 (worst-case cold start): the
    rebalancer must read the skew out of the shards' batch feedback
    and migrate one tenant; new submissions then route to shard 1."""

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.05,
            min_skew_arrivals=2,
            placement={"tenant0": 0, "tenant1": 0},
        )
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                before = []
                for index in range(4):
                    tenant = f"tenant{index % 2}"
                    response = await _request(
                        writer,
                        reader,
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": tenant,
                            "tag": index,
                        },
                    )
                    before.append(response)
                for _ in range(200):  # wait for a rebalance pass
                    if router.migrations:
                        break
                    await asyncio.sleep(0.02)
                migrations = list(router.migrations)
                moved = migrations[0].tenant if migrations else None
                after = None
                if moved:
                    after = await _request(
                        writer,
                        reader,
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": moved,
                            "tag": "after",
                        },
                    )
                stats = await router.stats()
                return before, migrations, after, stats
            finally:
                writer.close()
        finally:
            await _stop_farm(servers, router)

    before, migrations, after, stats = asyncio.run(scenario())
    # The first submission predates any possible migration (a pass
    # needs >= 2 window arrivals), so it must land on the packed shard.
    assert before[0]["shard"] == 0, before
    assert migrations, "rebalancer never migrated off the packed placement"
    migration = migrations[0]
    assert migration.source == 0 and migration.target == 1
    # New submissions route to the new shard; the in-flight ones above
    # already drained on the old one (their responses all arrived).
    assert after is not None and after["shard"] == 1, after
    assert stats["placement"][migration.tenant] == 1
    assert stats["conservation"]["complete"], stats["conservation"]


def test_router_drain_answers_inflight_and_refuses_new():
    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            time_scale=0.02, rebalance_interval=0.0
        )
        try:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # One long-lived query in flight (response not read yet).
                writer.write(
                    json.dumps(
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 40,
                            "slack": 50.0,
                            "tenant": "tenant0",
                            "tag": "inflight",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                await asyncio.sleep(0.05)  # let it reach the shard
                drain = asyncio.ensure_future(router.drain_stats())
                await asyncio.sleep(0.02)
                # A new submission while draining; its refusal and the
                # in-flight query's answer arrive in either order, so
                # read both lines and correlate by tag.
                writer.write(
                    json.dumps(
                        {
                            "op": "submit",
                            "type": "sort",
                            "pages": 8,
                            "slack": 50.0,
                            "tenant": "tenant1",
                            "tag": "late",
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                by_tag = {}
                for _ in range(2):
                    response = json.loads(await reader.readline())
                    by_tag[response["tag"]] = response
                stats = await drain
                return by_tag["late"], by_tag["inflight"], stats
            finally:
                writer.close()
        finally:
            await _stop_farm(servers, router)

    refused, inflight, stats = asyncio.run(scenario())
    assert refused["tag"] == "late"
    assert "draining" in refused["error"]
    assert inflight["tag"] == "inflight"
    assert "error" not in inflight
    conservation = stats["conservation"]
    # Only the in-flight query was ever accepted; it settled and was
    # answered, so the drained farm conserves.
    assert stats["arrivals"] == 1
    assert conservation["complete"], conservation


def test_router_close_is_idempotent():
    async def scenario():
        _, servers, router, _ = await _start_farm(rebalance_interval=0.0)
        await _stop_farm(servers, router)
        await router.close()  # second close: no-op, no exception
        for server in servers:
            await server.close()

    asyncio.run(scenario())


def _submit(tenant, **extra):
    request = {
        "op": "submit",
        "type": "sort",
        "pages": 8,
        "slack": 50.0,
        "tenant": tenant,
    }
    request.update(extra)
    return request


def test_dead_shard_link_fails_fast():
    """A request routed to a shard whose link died is answered at once
    with ``shard unreachable`` -- not parked on a future that nothing
    will ever resolve -- and is not counted as an arrival."""

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0
        )
        try:
            shard = router.place("tenant0")
            link = router.links[shard]
            await servers[shard].close()
            for _ in range(500):  # until the link's reader sees the EOF
                if link._reader_task.done():
                    break
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                response = await asyncio.wait_for(
                    _request(writer, reader, _submit("tenant0")), timeout=5.0
                )
            finally:
                writer.close()
            return response, router.arrivals
        finally:
            await _stop_farm(servers, router)

    response, arrivals = asyncio.run(scenario())
    assert "shard unreachable" in response["error"], response
    assert arrivals == 0


def test_stats_and_drain_survive_a_dead_shard():
    """One dead shard does not take the farm-wide view down with it:
    ``stats`` answers with that shard as its own error entry and
    conservation over the shards that answered (never ``complete``),
    ``drain_stats()`` returns instead of raising, and submits for the
    live shard are still served."""

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0
        )
        try:
            dead = router.place("tenant0")
            live_tenant = next(
                tenant
                for tenant in (f"tenant{k}" for k in range(1, 64))
                if router.place(tenant) != dead
            )
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:
                before = await _request(writer, reader, _submit(live_tenant))
                await servers[dead].close()
                link = router.links[dead]
                for _ in range(500):  # until the link's reader sees the EOF
                    if link._reader_task.done():
                        break
                    await asyncio.sleep(0.01)
                stats = await asyncio.wait_for(
                    _request(writer, reader, {"op": "stats"}), timeout=10.0
                )
                after = await asyncio.wait_for(
                    _request(writer, reader, _submit(live_tenant)), timeout=30.0
                )
            finally:
                writer.close()
            drained = await asyncio.wait_for(router.drain_stats(), timeout=30.0)
            return dead, before, stats, after, drained
        finally:
            await _stop_farm(servers, router)

    dead, before, stats, after, drained = asyncio.run(scenario())
    live = 1 - dead
    assert "error" not in before and "error" not in after, (before, after)
    assert after["shard"] == live
    for view in (stats, drained):
        assert "error" not in view, view
        assert "shard unreachable" in view["shards"][dead]["error"]
        assert view["shards"][dead]["shard"] == dead
        assert "error" not in view["shards"][live]
        conservation = view["conservation"]
        assert conservation["unreachable"] == [dead]
        assert conservation["ok"], conservation
        assert not conservation["complete"], conservation
    # The live shard's own count is in the aggregate, the dead one's not.
    assert drained["aggregate"]["arrivals"] == drained["shards"][live]["arrivals"] == 2
    assert drained["conservation"]["settled"] == 2


def test_over_limit_submit_is_refused_without_killing_the_link():
    """A 100 KB submit gets one structured error from the router, which
    reads requests under the same limit as its shards.  Forwarded, it
    would make the shard drop the link and strand every later submit
    routed there; instead the same tenant is served on a new
    connection and the drained farm conserves."""

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0
        )
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:
                writer.write(
                    json.dumps(_submit("tenant0", pad="x" * 100_000)).encode()
                    + b"\n"
                )
                await writer.drain()
                refused = json.loads(await reader.readline())
            finally:
                writer.close()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                answered = await asyncio.wait_for(
                    _request(writer, reader, _submit("tenant0")), timeout=30.0
                )
            finally:
                writer.close()
            return refused, answered, await router.drain_stats()
        finally:
            await _stop_farm(servers, router)

    refused, answered, stats = asyncio.run(scenario())
    assert refused == {"error": "request line too long"}
    assert "error" not in answered, answered
    assert stats["arrivals"] == 1
    assert stats["conservation"]["complete"], stats["conservation"]


def test_router_refuses_a_line_that_outgrows_the_shard_limit():
    """Forwarding re-encodes a request with its tenant and a link tag,
    so a line the router accepted can outgrow the limit its shard
    reads under.  The link refuses it unsent: only that request fails,
    and the same connection keeps being served."""
    request = _submit("tenant0", pad="")
    request["pad"] = "x" * (REQUEST_LIMIT - len(json.dumps(request)))
    line = json.dumps(request).encode()
    assert len(line) == REQUEST_LIMIT  # the router reads it whole

    async def scenario():
        _, servers, router, (host, port) = await _start_farm(
            rebalance_interval=0.0
        )
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
            try:
                writer.write(line + b"\n")
                await writer.drain()
                refused = json.loads(await reader.readline())
                answered = await asyncio.wait_for(
                    _request(writer, reader, _submit("tenant0")), timeout=30.0
                )
            finally:
                writer.close()
            return refused, answered, await router.drain_stats()
        finally:
            await _stop_farm(servers, router)

    refused, answered, stats = asyncio.run(scenario())
    assert "request line too long for shard" in refused["error"], refused
    assert "error" not in answered, answered
    assert stats["arrivals"] == 1
    assert stats["conservation"]["complete"], stats["conservation"]


# ----------------------------------------------------------------------
# the sharded shootout pipeline (clipped: no migration requirement)
# ----------------------------------------------------------------------
def test_sharded_shootout_conserves_and_merges():
    from repro.serve.shootout import live_shootout

    report = live_shootout(
        policies=("max",),
        time_scale=0.01,
        max_arrivals=10,
        tenants=2,
        shards=2,
        predict=False,
    )
    assert report.ok, report.failures
    assert report.shards == 2
    merged = report.live["max"]
    assert merged.arrivals == 10
    assert merged.served == 10
    stats = report.router_stats["max"]
    assert stats["conservation"]["complete"], stats["conservation"]
    # The merged farm report spans both shards' disk farms.
    total_disks = two_tenant_config().resources.num_disks
    assert len(merged.disk_busy) == total_disks


def test_sharded_shootout_requires_tenants():
    from repro.serve.shootout import live_shootout

    with pytest.raises(ValueError, match="tenants"):
        live_shootout(policies=("max",), shards=2, time_scale=0.01)


# ----------------------------------------------------------------------
# shard subprocesses die with their router
# ----------------------------------------------------------------------
def _children(pid):
    """Live child pids of ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        stat = _stat(int(entry)) if entry.isdigit() else None
        if stat is not None and stat[1] == pid and stat[0] != "Z":
            children.append(int(entry))
    return children


def _stat(pid):
    """``(state, ppid)`` of ``pid``, or ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads /proc; the parent-death signal is Linux-only",
)


def _launch_route():
    """The ``route`` CLI over two shard subprocesses, once it listens;
    returns ``(process, output line queue, shard pids)``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    router = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "route", "--shards", "2",
         "--tenants", "2", "--port", "0", "--time-scale", "0.02"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines = queue.Queue()

    def pump():
        with router.stdout:
            for line in router.stdout:
                lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 120.0
    try:
        while True:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            assert line is not None, "route exited before listening"
            if "router" in line and "listening on" in line:
                return router, lines, _children(router.pid)
    except BaseException:
        router.kill()  # its shards follow it (parent-death signal)
        router.wait()
        raise


def _reap(router, shards):
    if router.poll() is None:
        router.kill()
        router.wait()
    for pid in shards:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


@linux_only
def test_sigkilled_router_takes_its_shard_processes_down():
    """SIGKILL runs no cleanup in the router, so its shards must go by
    themselves: within a bounded wait no shard process is left."""
    router, _lines, shards = _launch_route()
    try:
        assert len(shards) == 2, shards
        router.kill()
        router.wait(timeout=10.0)
        deadline = time.monotonic() + 30.0
        while any(_alive(pid) for pid in shards) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in shards if _alive(pid)]
    finally:
        _reap(router, shards)


@linux_only
def test_route_drain_with_a_dead_shard_reports_violation():
    """A shard killed under the ``route`` CLI: the SIGINT drain still
    ends in a conservation verdict -- ``VIOLATED``, exit non-zero --
    not in a traceback."""
    router, lines, shards = _launch_route()
    try:
        assert len(shards) == 2, shards
        os.kill(shards[0], signal.SIGKILL)
        router.send_signal(signal.SIGINT)
        router.wait(timeout=60.0)
        output = []
        while (line := lines.get(timeout=10.0)) is not None:
            output.append(line)
        output = "".join(output)
    finally:
        _reap(router, shards)
    assert router.returncode != 0, output
    assert "conservation VIOLATED" in output, output
    assert "'unreachable': [0]" in output, output
    assert "Traceback" not in output, output
