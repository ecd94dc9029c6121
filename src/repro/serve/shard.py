"""Shard-slicing and shard-process management for the routed serve layer.

A *shard* is one full :class:`~repro.serve.server.LiveServer` stack --
its own :class:`~repro.serve.broker.MemoryBroker`, tracked allocator,
``LiveBufferPool``, ``LiveDisk`` farm and worker gate -- serving a
slice of the scenario's physical resources.  :func:`shard_config`
computes that slice: shard ``i`` of ``N`` gets an even split of the
scenario's disks and buffer-pool pages (remainders go to the low
shards), while the *workload definition* (query classes, rates, slack
ranges) stays global so any shard can serve any tenant.

``of == 1`` is the identity: the config object is returned unchanged,
so an unrouted deployment is byte-identical to what PR 4-7 shipped.

:class:`ShardProcess` launches a shard as a real subprocess through
the existing ``python -m repro.serve serve`` entrypoint (with
``--shard-id/--of``), parses the listening banner for the ephemeral
port, and drains it with SIGINT -- the same lifecycle a human operator
or an init system would drive.  A shard never outlives the process that
launched it: on Linux the launcher arms the kernel's parent-death
signal (``PR_SET_PDEATHSIG``) in the child, so a router killed with
SIGKILL -- which runs no cleanup of its own -- still takes its shards
down (each gets SIGTERM, the same graceful drain as SIGINT).  A
``serve`` started by hand is untouched: only :class:`ShardProcess`
arms the signal.
"""

from __future__ import annotations

import ctypes
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.rtdbs.config import SimulationConfig

#: ``repro.serve: ... listening on 127.0.0.1:43211`` -- printed by
#: ``serve`` (and ``route``) once the listener is bound.
BANNER_PATTERN = re.compile(r"listening on ([\d.]+):(\d+)")


#: ``prctl`` option: signal the calling process when its parent dies.
PR_SET_PDEATHSIG = 1


def _die_with_launcher():
    """A ``preexec_fn`` that makes the child get SIGTERM when the
    launching process dies, or ``None`` where the kernel offers no
    parent-death signal.

    ``prctl`` is looked up here, in the launcher; the child only calls
    it.  If the launcher is already gone by the time the child arms
    the signal, the child exits before ``exec``.  The kernel sends the
    signal when the launching *thread* exits, so launch from a thread
    that lives as long as the farm (``route`` launches from its main
    thread).
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    launcher = os.getpid()

    def arm() -> None:
        prctl(PR_SET_PDEATHSIG, int(signal.SIGTERM))
        if os.getppid() != launcher:
            os._exit(1)

    return arm


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` integer shares, remainder to the
    low indices: ``split_evenly(10, 3) == [4, 3, 3]``."""
    if parts < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def shard_config(
    config: SimulationConfig, shard_id: int, of: int
) -> SimulationConfig:
    """The resource slice shard ``shard_id`` of ``of`` serves.

    Disks and buffer-pool pages are split evenly (remainder to the low
    shards); everything else -- workload classes, cost constants, seed
    -- is untouched, so every shard prices deadlines and maps tenants
    identically.  ``of == 1`` returns ``config`` itself (the unrouted
    identity path).
    """
    if of < 1:
        raise ValueError(f"shard count must be positive, got {of}")
    if not 0 <= shard_id < of:
        raise ValueError(f"shard id {shard_id} outside [0, {of})")
    if of == 1:
        return config
    num_disks = config.resources.num_disks
    if of > num_disks:
        raise ValueError(
            f"cannot split {num_disks} disks across {of} shards -- "
            "every shard needs at least one disk"
        )
    disks = split_evenly(num_disks, of)
    pages = split_evenly(config.resources.memory_pages, of)
    if pages[shard_id] < 1:
        raise ValueError(
            f"cannot split {config.resources.memory_pages} pool pages "
            f"across {of} shards"
        )
    resources = replace(
        config.resources,
        num_disks=disks[shard_id],
        memory_pages=pages[shard_id],
    )
    return config.with_overrides(resources=resources)


def _src_root() -> str:
    """The directory holding the ``repro`` package (for PYTHONPATH)."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


@dataclass
class ShardProcess:
    """One shard subprocess: launch, banner parse, drain, reap."""

    shard_id: int
    of: int
    process: subprocess.Popen
    host: str = ""
    port: int = 0
    #: Every stdout/stderr line the shard printed (diagnostics).
    lines: List[str] = field(default_factory=list)
    _queue: "queue.Queue" = field(default_factory=queue.Queue)

    # -- launch --------------------------------------------------------
    @classmethod
    def launch(
        cls,
        shard_id: int,
        of: int,
        policy: str = "pmm",
        tenants: Optional[int] = None,
        family: str = "mix",
        index: int = 0,
        scenario_seed: int = 0,
        time_scale: float = 0.05,
        shed: bool = False,
        extra_args: Sequence[str] = (),
        banner_timeout: float = 30.0,
    ) -> "ShardProcess":
        """Spawn ``python -m repro.serve serve --shard-id I --of N`` on
        an ephemeral port and wait for its listening banner."""
        argv = [
            sys.executable,
            "-m",
            "repro.serve",
            "serve",
            "--port",
            "0",
            "--policy",
            policy,
            "--shard-id",
            str(shard_id),
            "--of",
            str(of),
            "--family",
            family,
            "--index",
            str(index),
            "--scenario-seed",
            str(scenario_seed),
            "--time-scale",
            str(time_scale),
        ]
        if tenants is not None:
            argv += ["--tenants", str(tenants)]
        if shed:
            argv.append("--shed")
        argv += list(extra_args)
        env = dict(os.environ)
        src = _src_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            preexec_fn=_die_with_launcher(),
        )
        shard = cls(shard_id=shard_id, of=of, process=process)
        shard._start_pump()
        shard._await_banner(banner_timeout)
        return shard

    def _start_pump(self) -> None:
        def pump() -> None:
            assert self.process.stdout is not None
            for line in self.process.stdout:
                self._queue.put(line.rstrip("\n"))
            self._queue.put(None)  # EOF sentinel

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()

    def _await_banner(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.process.kill()
                raise RuntimeError(
                    f"shard {self.shard_id}/{self.of}: no listening "
                    f"banner within {timeout}s; output so far:\n"
                    + "\n".join(self.lines)
                )
            try:
                line = self._queue.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"shard {self.shard_id}/{self.of} exited before "
                    "printing its banner; output:\n" + "\n".join(self.lines)
                )
            self.lines.append(line)
            match = BANNER_PATTERN.search(line)
            if match:
                self.host = match.group(1)
                self.port = int(match.group(2))
                return

    # -- teardown ------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> int:
        """SIGINT the shard (graceful drain) and reap it, collecting
        the rest of its output.  Returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        code = self.process.wait(timeout=timeout)
        self.collect_output()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        self.collect_output()

    def collect_output(self) -> List[str]:
        """Drain the pump queue into :attr:`lines` (non-blocking)."""
        while True:
            try:
                line = self._queue.get_nowait()
            except queue.Empty:
                break
            if line is None:
                break
            self.lines.append(line)
        return self.lines

    @property
    def drained_cleanly(self) -> bool:
        """True once the shard printed its graceful-drain banner."""
        return any("drained cleanly" in line for line in self.lines)

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port


def launch_shards(
    count: int,
    policy: str = "pmm",
    tenants: Optional[int] = None,
    family: str = "mix",
    index: int = 0,
    scenario_seed: int = 0,
    time_scale: float = 0.05,
    shed: bool = False,
    extra_args: Sequence[str] = (),
) -> List[ShardProcess]:
    """Launch ``count`` shard subprocesses; kill them all if any fails
    to come up (no half-built farm leaks)."""
    shards: List[ShardProcess] = []
    try:
        for shard_id in range(count):
            shards.append(
                ShardProcess.launch(
                    shard_id,
                    count,
                    policy=policy,
                    tenants=tenants,
                    family=family,
                    index=index,
                    scenario_seed=scenario_seed,
                    time_scale=time_scale,
                    shed=shed,
                    extra_args=extra_args,
                )
            )
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards
