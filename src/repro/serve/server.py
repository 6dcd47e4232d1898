"""The asyncio front end: connections, the dispatcher, signal shutdown.

One :class:`QueryServer` owns a stdlib ``asyncio.start_server`` listener
and a **single dispatcher task** that drains a shared request queue.
The drain loop *is* the coalescing window: the dispatcher takes whatever
has accumulated (optionally sleeping ``batch_window`` seconds after the
first request), hands the whole drain to
:meth:`~repro.serve.batcher.CoalescingBatcher.execute` in a worker
thread, and resolves each request's future with its response.  While a
round is in flight new requests pile up in the queue, so concurrent
clients coalesce naturally even with ``batch_window=0``.

Connections are pipelined: each line spawns a responder task, responses
go out in completion order (matched by ``id``) under a per-connection
write lock.  Protocol failures answer with a structured error line and
keep the connection open.

Overload protection happens at the queue boundary: a ``queue_cap``
bounds the dispatch queue and admissions past it answer a structured
``overloaded`` error immediately (``ServeStats.requests_shed``), and
every request carries a deadline (its own ``deadline_ms`` or the
server's ``request_timeout_ms`` default) that the dispatcher checks when
it drains — an expired request answers ``deadline-exceeded`` without
costing an engine round.  A saturated server stays responsive: it sheds
instead of buffering without bound.

Shutdown (``aclose`` — what the CLI's SIGTERM/SIGINT handlers trigger)
stops the listener and then, with ``drain=True`` (the first signal),
runs the queue dry before closing; a second signal — or plain
``aclose()`` — fails queued requests instead.  Either way the hub close
routes every ``dm-mp`` pool through
:func:`repro.utils.workers.stop_worker_pool`, and pool workers of a
SIGKILLed server exit through their orphan watchdog — the crash tests
assert that no worker outlives the server for SIGTERM and SIGKILL.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.core import faults
from repro.serve.batcher import CoalescingBatcher, EngineHub, ServeStats
from repro.serve.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    decode_line,
    encode,
    error_response,
    parse_request,
)

#: Queue marker that tells the dispatcher to run the queue dry and exit
#: (graceful drain); everything enqueued before it is still answered.
_DRAIN = object()


class QueryServer:
    """Serve one :class:`~repro.serve.batcher.EngineHub` over TCP.

    Parameters
    ----------
    hub:
        The warm engines (the server owns it after ``start``: ``aclose``
        closes it).
    host / port:
        Bind address; port 0 picks a free port (``start`` returns the
        bound address).
    batch_window:
        Extra seconds the dispatcher waits after the first request of a
        batch before draining.  0 (default) still coalesces whatever is
        queued — including everything that arrived while the previous
        round was in flight.
    queue_cap:
        Bound on queued-but-undispatched requests; admissions past it
        are shed with a structured ``overloaded`` error instead of
        buffering without bound.  ``None`` (default) leaves the queue
        unbounded.
    request_timeout_ms:
        Default per-request deadline; a request still queued when it
        expires answers ``deadline-exceeded`` instead of holding its
        connection forever.  A request's own ``deadline_ms`` overrides
        it.  ``None`` (default) applies no deadline.
    """

    def __init__(
        self,
        hub: EngineHub,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_window: float = 0.0,
        queue_cap: int | None = None,
        request_timeout_ms: float | None = None,
        stats: ServeStats | None = None,
    ) -> None:
        if queue_cap is not None and int(queue_cap) < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        if request_timeout_ms is not None and not request_timeout_ms > 0:
            raise ValueError(
                f"request_timeout_ms must be > 0, got {request_timeout_ms}"
            )
        self.hub = hub
        self.batcher = CoalescingBatcher(hub, stats)
        self.host = host
        self.port = int(port)
        self.batch_window = float(batch_window)
        self.queue_cap = None if queue_cap is None else int(queue_cap)
        self.request_timeout_ms = (
            None if request_timeout_ms is None else float(request_timeout_ms)
        )
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._queue: asyncio.Queue[Any] = asyncio.Queue(
            maxsize=0 if self.queue_cap is None else self.queue_cap
        )
        self._accepted = 0
        self._closed = False

    @property
    def stats(self) -> ServeStats:
        return self.batcher.stats

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, launch the dispatcher, warm the pools; returns the
        bound ``(host, port)``."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.hub.warm)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES + 2,
        )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def aclose(self, *, drain: bool = False) -> None:
        """Stop accepting and release the hub (idempotent).

        With ``drain`` the dispatcher first runs the queue dry — every
        request admitted before the close is answered — while new
        admissions are shed with ``overloaded``; without it queued
        requests fail with an ``internal`` shutdown error.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._dispatcher is not None:
            await self._queue.put(_DRAIN)
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while not self._queue.empty():
            entry = self._queue.get_nowait()
            if entry is _DRAIN:
                continue
            request, future, _ = entry
            if not future.done():
                future.set_result(
                    error_response(
                        request.id, ERROR_INTERNAL, "server shutting down"
                    )
                )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.hub.close)

    def abort_drain(self) -> None:
        """Force a drain in progress to stop (the second SIGTERM/SIGINT):
        cancels the dispatcher so ``aclose(drain=True)`` falls through to
        failing whatever is still queued."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()

    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        draining = False
        while not draining:
            first = await self._queue.get()
            if first is _DRAIN:
                return
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            drained = [first]
            while True:
                try:
                    entry = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if entry is _DRAIN:
                    draining = True
                    break
                drained.append(entry)
            # Expired deadlines answer here, before any engine work: a
            # request that waited out its patience budget in the queue
            # must not consume a round its client stopped waiting for.
            now = loop.time()
            batch = []
            for request, future, deadline in drained:
                if deadline is not None and now > deadline:
                    self.stats.deadlines_exceeded += 1
                    if not future.done():
                        future.set_result(
                            error_response(
                                request.id,
                                ERROR_DEADLINE_EXCEEDED,
                                "request deadline expired in the dispatch "
                                "queue",
                            )
                        )
                else:
                    batch.append((request, future))
            if not batch:
                continue
            requests = [request for request, _ in batch]
            try:
                responses = await loop.run_in_executor(
                    None, self.batcher.execute, requests
                )
            except Exception as exc:  # noqa: BLE001 - keep serving
                for request, future in batch:
                    if not future.done():
                        future.set_result(
                            error_response(
                                request.id,
                                ERROR_INTERNAL,
                                f"{type(exc).__name__}: {exc}",
                            )
                        )
                continue
            for (_, future), response in zip(batch, responses):
                if not future.done():
                    future.set_result(response)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        responders: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Line longer than the stream limit: the framing is
                    # unrecoverable, answer once and drop the connection.
                    await self._write(
                        writer,
                        lock,
                        error_response(
                            None,
                            ERROR_BAD_REQUEST,
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                request_id: Any = None
                try:
                    payload = decode_line(line)
                    request_id = payload.get("id")
                    request = parse_request(payload)
                except ProtocolError as exc:
                    self.stats.errors += 1
                    await self._write(
                        writer,
                        lock,
                        error_response(request_id, exc.code, exc.message),
                    )
                    continue
                future: asyncio.Future = (
                    asyncio.get_running_loop().create_future()
                )
                self._admit(request, future)
                task = asyncio.create_task(
                    self._respond(writer, lock, future)
                )
                responders.add(task)
                task.add_done_callback(responders.discard)
        finally:
            if responders:
                await asyncio.gather(*responders, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _admit(self, request: Request, future: asyncio.Future) -> None:
        """Enqueue one parsed request — or shed it, answering immediately.

        Shedding (queue at ``queue_cap``, shutdown in progress, or an
        injected ``serve-drop`` fault) resolves the future with a
        structured ``overloaded`` error without touching the dispatcher,
        so a saturated server answers in admission time, not queue time.
        """
        arrival = self._accepted
        self._accepted += 1
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.request_timeout_ms
        deadline = (
            None
            if deadline_ms is None
            else asyncio.get_running_loop().time() + deadline_ms / 1000.0
        )
        if self._closed:
            self._shed(request, future, "server is shutting down")
            return
        if faults.maybe_fail("serve-drop", request=arrival) is not None:
            self._shed(request, future, "dispatch queue is full")
            return
        try:
            self._queue.put_nowait((request, future, deadline))
        except asyncio.QueueFull:
            self._shed(request, future, "dispatch queue is full")

    def _shed(
        self, request: Request, future: asyncio.Future, message: str
    ) -> None:
        self.stats.requests_shed += 1
        if not future.done():
            future.set_result(
                error_response(request.id, ERROR_OVERLOADED, message)
            )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        future: asyncio.Future,
    ) -> None:
        response = await future
        await self._write(writer, lock, response)

    @staticmethod
    async def _write(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, response: dict
    ) -> None:
        async with lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; nothing to tell it


def run_server(
    hub: EngineHub,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    batch_window: float = 0.0,
    queue_cap: int | None = None,
    request_timeout_ms: float | None = None,
    on_ready: Callable[[str, int], None] | None = None,
) -> ServeStats:
    """Blocking entry point: serve until SIGTERM/SIGINT, then clean up.

    The signal handlers set an event rather than raising, so shutdown
    always runs :meth:`QueryServer.aclose` — worker pools are stopped via
    ``stop_worker_pool`` even when the process is terminated externally.
    The first signal drains gracefully (stops accepting, answers
    everything already queued); a second signal cuts the drain short and
    fails what is left.  Returns the final serving counters.
    """
    import signal

    stats = ServeStats()

    async def main() -> None:
        server = QueryServer(
            hub,
            host=host,
            port=port,
            batch_window=batch_window,
            queue_cap=queue_cap,
            request_timeout_ms=request_timeout_ms,
            stats=stats,
        )
        bound_host, bound_port = await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def on_signal() -> None:
            if stop.is_set():
                server.abort_drain()
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, on_signal)
            except NotImplementedError:  # pragma: no cover - non-posix
                pass
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        try:
            await stop.wait()
        finally:
            await server.aclose(drain=True)

    asyncio.run(main())
    return stats
