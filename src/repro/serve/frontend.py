"""The JSON-lines TCP front end shared by the live server and the router.

One request per line, one JSON response per request.
:class:`JsonLinesFrontEnd` owns everything about the wire;
:class:`~repro.serve.server.LiveServer` (a gateway behind it) and
:class:`~repro.serve.router.ShardRouter` (shard links behind it) add
only their ops and their drain steps.

* Every request line is served in its own task, so a submit waiting
  for its query's departure never blocks the connection's later
  requests.  ``{"op": "hello", "tenant": T}`` sets the connection's
  default tenant; a per-request ``"tenant"`` key overrides it.
* Malformed and non-object JSON, and any error a request raises, are
  answered with ``{"error": ...}``.  A line longer than
  :data:`REQUEST_LIMIT` gets one ``request line too long`` error and a
  close (the stream's framing is lost).  A disconnect cancels the
  connection's in-flight requests.  Nothing one client does can kill
  the accept loop or wedge another client's connection.
* Any request may carry a ``"tag"`` (any JSON value) and its response
  echoes it: submit responses arrive at query *departure* time, out of
  order on a pipelining connection, so a multiplexing client
  correlates them by tag.
* ``close`` is an idempotent graceful drain: stop accepting, refuse
  new submissions, let in-flight requests answer (bounded by
  ``DRAIN_TIMEOUT``), close the connections.

Only ``asyncio`` and ``json`` are imported, so a router process does
not load the gateway.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

#: The longest request line (newline excluded) a front end reads --
#: asyncio's default stream limit.  Responses may be longer (see
#: :data:`repro.serve.router.LINE_LIMIT`).
REQUEST_LIMIT = 1 << 16


class JsonLinesFrontEnd:
    """Listener, connection loop, error mapping and drain lifecycle;
    subclasses implement the hooks below."""

    #: Wall seconds ``close`` waits for in-flight requests to answer
    #: (in case a client's transport wedges mid-write).
    DRAIN_TIMEOUT = 10.0

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._draining = False
        self._closing = False
        self._closed = asyncio.Event()
        #: Requests mid-flight in a handler (read, not yet responded).
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    async def _dispatch(self, request: dict, tenant: str = "") -> dict:
        """Serve one parsed request for ``tenant`` (the connection's
        default); raise ``ValueError`` for a client error."""
        raise NotImplementedError

    def _greet(self, tenant: str) -> dict:
        """The response to ``{"op": "hello", "tenant": tenant}``."""
        raise NotImplementedError

    async def _quiesce(self) -> None:
        """Drain step between closing the listener and waiting for the
        in-flight requests."""

    async def _shutdown(self) -> None:
        """Last drain step, after every connection closed."""

    # ------------------------------------------------------------------
    async def _listen(self, host: str, port: int) -> tuple:
        """Bind the listener; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=REQUEST_LIMIT
        )
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    @property
    def draining(self) -> bool:
        return self._draining

    def _stop_accepting(self) -> None:
        """Refuse new connections and submissions."""
        self._draining = True
        if self._server is not None:
            self._server.close()

    async def _until_idle(self, timeout: float) -> None:
        """Wait (at most ``timeout`` s) until every request answered."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass

    async def close(self) -> None:
        """Graceful drain: refuse new work, let in-flight requests
        answer their clients, close the connections, then tear down.

        Idempotent: concurrent or repeated calls wait for the first
        drain to finish instead of draining twice.
        """
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        try:
            self._stop_accepting()
            await self._quiesce()
            await self._until_idle(self.DRAIN_TIMEOUT)
            for writer in list(self._writers):
                writer.close()
            if self._server is not None:
                await self._server.wait_closed()
                self._server = None
            await self._shutdown()
        finally:
            self._closed.set()

    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """One connection: read request lines, serve each in its own task."""
        self._writers.add(writer)
        #: Shared connection state: "hello" sets the default tenant for
        #: every later request (tasks start in arrival order, and hello
        #: has no await before the mutation, so the order holds).
        state = {"tenant": ""}
        lock = asyncio.Lock()  # serialises response writes
        inflight: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream's framing is lost.
                    await self._respond(
                        writer, lock, {"error": "request line too long"}
                    )
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(line, state, writer, lock)
                )
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # shutdown or client vanished: just end quietly
        finally:
            for task in list(inflight):
                task.cancel()  # aborts whatever these requests own
            self._writers.discard(writer)
            writer.close()

    async def _serve_request(self, line, state, writer, lock) -> None:
        """Parse and serve one request line; always answer something."""
        self._pending += 1
        self._idle.clear()
        tag = None
        try:
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response = {"error": f"malformed JSON: {error}"}
            else:
                if not isinstance(request, dict):
                    response = {"error": "request must be a JSON object"}
                else:
                    tag = request.get("tag")
                    try:
                        if request.get("op") == "hello":
                            tenant = str(request.get("tenant", ""))
                            state["tenant"] = tenant
                            response = self._greet(tenant)
                        else:
                            response = await self._dispatch(
                                request, state["tenant"]
                            )
                    except (ValueError, KeyError, TypeError) as error:
                        response = {"error": str(error)}
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        # A server-side bug must not kill the
                        # connection loop.
                        response = {
                            "error": "internal error: "
                            f"{type(error).__name__}: {error}"
                        }
            if tag is not None:
                response["tag"] = tag
            await self._respond(writer, lock, response)
        except asyncio.CancelledError:
            return  # connection gone: the request cleaned up after itself
        finally:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    async def _respond(self, writer, lock, response: dict) -> None:
        payload = json.dumps(response).encode() + b"\n"
        try:
            async with lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished before reading its response
