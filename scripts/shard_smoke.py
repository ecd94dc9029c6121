#!/usr/bin/env python
"""Sharded serve smoke: the routed farm over real subprocesses.

CI's ``shard-smoke`` job runs this: it launches the actual router CLI
(``python -m repro.serve route --shards 2 --tenants 2``), which itself
spawns two real shard subprocesses (each a full serve stack on half
the scenario's disks and pool pages).  One submit over the request-line
limit goes first, then two concurrent tenant clients drive submissions
through the router; the script asserts

* the over-limit submit gets one structured error from the router and
  is never forwarded (a shard would drop its link over it, stranding
  every later submit routed there);
* every submission is answered with its shard attribution and echoed
  tag (departure-time responses are correlated, not ordered);
* conservation: router arrivals == Σ shard arrivals == Σ shard
  (served + shed), per tenant and in aggregate;
* SIGINT drains the whole farm: the router prints its conservation
  verdict and exits 0, and every shard drains cleanly underneath it.

On any failure the whole farm is killed (the router runs in its own
process group, which its shards share) and the exact reproduction
command is printed last.

Run locally with::

    PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SHARDS = 2
TENANTS = ("tenant0", "tenant1")
#: Submissions per tenant.
PER_TENANT = 3

REPRO_COMMAND = (
    "PYTHONPATH=src python -m repro.serve route --shards 2 --tenants 2 "
    "--port 0 --time-scale {scale}"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def launch(time_scale: float) -> tuple:
    """Start the router CLI (which launches the shard subprocesses);
    returns (process, host, port, lines queue)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "route",
            "--shards",
            str(SHARDS),
            "--tenants",
            str(len(TENANTS)),
            "--port",
            "0",
            "--policy",
            "pmm",
            "--time-scale",
            str(time_scale),
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            lines.put(line)
        lines.put(None)  # EOF

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 120.0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            kill_farm(process)
            raise SystemExit("router never printed its ready line")
        try:
            line = lines.get(timeout=min(remaining, 1.0))
        except queue.Empty:
            continue
        if line is None:
            raise SystemExit(
                f"router exited early ({process.wait()}) before its ready line"
            )
        match = re.search(r"router .*listening on ([\d.]+):(\d+)", line)
        if match:
            return process, match.group(1), int(match.group(2)), lines


async def tenant_client(host: str, port: int, tenant: str) -> list:
    """One tenant through the router: hello (placement), submissions."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            json.dumps({"op": "hello", "tenant": tenant}).encode() + b"\n"
        )
        await writer.drain()
        hello = json.loads(await reader.readline())
        assert hello["tenant"] == tenant, hello
        assert hello["shard"] in range(SHARDS), hello
        responses = []
        for index in range(PER_TENANT):
            tag = f"{tenant}-{index}"
            writer.write(
                json.dumps(
                    {
                        "op": "submit",
                        "type": "sort" if index % 2 == 0 else "hash_join",
                        "pages": 8 + 4 * index,
                        "slack": 20.0,
                        "tag": tag,
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            response = json.loads(await reader.readline())
            assert "error" not in response, response
            assert response["tenant"] == tenant, response
            assert response["tag"] == tag, response
            assert response["shard"] in range(SHARDS), response
            responses.append(response)
        return responses
    finally:
        writer.close()


async def over_limit_submit(host: str, port: int) -> None:
    """A submit longer than the request-line limit (64 KiB) is refused
    with one structured error, and the router closes that connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            json.dumps(
                {
                    "op": "submit",
                    "type": "sort",
                    "pages": 8,
                    "slack": 20.0,
                    "tenant": TENANTS[0],
                    "pad": "x" * 100_000,
                }
            ).encode()
            + b"\n"
        )
        await writer.drain()
        response = json.loads(await reader.readline())
        assert response == {"error": "request line too long"}, response
        assert await reader.read() == b"", "connection left open"
    finally:
        writer.close()


async def fetch_stats(host: str, port: int) -> dict:
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 20)
    try:
        writer.write(json.dumps({"op": "stats"}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def check_stats(stats: dict) -> None:
    """Conservation across the routed farm."""
    expected = len(TENANTS) * PER_TENANT
    assert stats["arrivals"] == expected, stats
    assert stats["responses"] == expected, stats
    assert sum(stats["routed"]) == expected, stats
    assert stats["per_tenant"] == {
        tenant: PER_TENANT for tenant in TENANTS
    }, stats["per_tenant"]
    conservation = stats["conservation"]
    assert conservation["ok"], conservation
    assert conservation["complete"], conservation
    assert conservation["shard_arrivals"] == expected, conservation
    assert conservation["settled"] == expected, conservation
    shards = stats["shards"]
    assert len(shards) == SHARDS, [s.get("shard") for s in shards]
    for shard_stats in shards:
        shard = shard_stats["shard"]
        assert shard is not None and shard["of"] == SHARDS, shard_stats
        assert shard_stats["served"] + shard_stats["shed"] == shard_stats[
            "arrivals"
        ], shard_stats
    assert sum(s["arrivals"] for s in shards) == expected, shards


def kill_farm(process: subprocess.Popen) -> None:
    """SIGKILL the router and every shard it spawned: they share the
    router's process group."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


async def _drive(host: str, port: int) -> dict:
    await over_limit_submit(host, port)
    results = await asyncio.gather(
        *(tenant_client(host, port, tenant) for tenant in TENANTS)
    )
    stats = await fetch_stats(host, port)
    return {"responses": results, "stats": stats}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--time-scale", type=float, default=0.02)
    args = parser.parse_args(argv)

    try:
        return _run(args)
    except BaseException:
        print(
            "shard-smoke failed; reproduce with:\n  "
            + REPRO_COMMAND.format(scale=args.time_scale),
            file=sys.stderr,
        )
        raise


def _run(args) -> int:
    process, host, port, lines = launch(args.time_scale)
    try:
        return _exercise(process, host, port, lines)
    except BaseException:
        kill_farm(process)
        raise


def _exercise(process: subprocess.Popen, host: str, port: int, lines) -> int:
    results = asyncio.run(asyncio.wait_for(_drive(host, port), timeout=240.0))
    stats = results["stats"]
    check_stats(stats)
    aggregate = stats["aggregate"]
    print(
        f"shard-smoke: {len(TENANTS)} tenants x {PER_TENANT} queries routed "
        f"across {SHARDS} shards (miss_ratio={aggregate['miss_ratio']}, "
        f"placement={stats['placement']})"
    )

    # Graceful drain: SIGINT to the router must drain the whole farm --
    # router conservation verdict, exit 0, every shard drained.
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=180.0)
    except subprocess.TimeoutExpired:
        raise SystemExit("router did not drain within 180 s of SIGINT")
    chunks = []
    while True:  # the pump thread ends with a None sentinel at EOF
        line = lines.get(timeout=10.0)
        if line is None:
            break
        chunks.append(line)
    output = "".join(chunks)
    if process.returncode != 0:
        raise SystemExit(
            f"router exited {process.returncode} after SIGINT:\n{output}"
        )
    if "router drained cleanly" not in output:
        raise SystemExit(f"no router drain banner:\n{output}")
    if "conservation ok" not in output:
        raise SystemExit(f"no conservation verdict in drain banner:\n{output}")
    print("shard-smoke: SIGINT drained the farm (router + shards) cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
