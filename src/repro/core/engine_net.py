"""Multi-host candidate sharding over TCP (``--engine dm-mp:tcp=...``).

:class:`HostPool` is the coordinator: it shards candidate chunks across
remote worker pools exactly the way
:class:`~repro.core.engine_mp.MultiprocessDMEngine` shards them across
local processes — same framed ops (``chunk``, ``commit``, ``delta``,
``extrows``, ``stop``), same exact
:attr:`~repro.core.engine.EngineStats.ipc_bytes` accounting — except the
frames ride length-prefixed TCP sockets instead of pipes.  Each host runs
``repro net-worker`` (:func:`run_net_worker`): an accept loop that
handshakes one coordinator at a time, builds the same private
:class:`~repro.core.engine.BatchedDMEngine` a forked pool member would
(or a whole host-side ``dm-mp`` pool with ``--workers``), and serves the
shared :func:`~repro.core.engine_mp._worker_loop`.

Determinism is inherited, not re-proved: the coordinator reuses the
multiprocess engine's chunking (`np.array_split` contiguous chunks,
results concatenated in chunk order), so selections are byte-identical
to ``dm`` at every host count — and stay byte-identical when a host is
lost mid-run, because re-sharding only moves *which* connection evaluates
a chunk, never the chunk contents or their concatenation order.

Failure model
-------------
Connects retry until ``connect_timeout`` (hosts may still be starting).
After the handshake, a host that dies mid-round is dropped from the pool
(``stats.hosts_lost``) and its unanswered chunks are re-dispatched to the
survivors (``stats.chunks_resharded``); later rounds shard across the
survivors while the coordinator keeps re-dialing the lost address on a
deterministic backoff schedule — a host that comes back is re-handshaken
with the current problem, journal-replayed, and restored to its original
shard slot (``stats.hosts_rejoined``).  Broadcast ops (``ping`` /
``commit`` / ``delta``) are simply dropped for dead hosts — a worker
that misses a commit rebuilds its session trajectory lazily from the
``(base, seeds)`` pair every fan-out message carries, bitwise identical
either way.  Losing the *last* host raises.  A worker-side evaluation
error (as opposed to a transport failure) still raises immediately, like
the process pool.

The handshake ships the pickled problem once per connection, mirroring
the process pool's ship-once-at-start contract.  When the net worker was
started with ``--store-dir``, it opens the shared
:class:`~repro.core.walk_store.WalkStore` against the coordinator's
problem first — the store manifest's identity check rejects coordinators
whose problem does not match the walks on disk, so a fleet can only ever
agree on one problem identity.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import time
from typing import Callable, Sequence

from repro.core import faults
from repro.core.engine import BatchedDMEngine, EngineStats
from repro.core.engine_mp import (
    _BROADCAST_OPS,
    _EVOLUTION_COUNTERS,
    _PICKLE_PROTOCOL,
    _STOP_BYTES,
    MultiprocessDMEngine,
    _recv_message,
    _send_message,
    _worker_loop,
)
from repro.core.problem import FJVoteProblem
from repro.utils.retry import backoff_schedule, with_backoff
from repro.utils.workers import stop_worker_pool

#: Re-dial ladder for lost hosts (seconds between rejoin attempts);
#: deterministic — the attempt count indexes it, the tail repeats.
_REJOIN_DELAYS = tuple(backoff_schedule(retries=6, base_delay=0.1, max_delay=2.0))

#: Per-attempt connect budget while re-dialing a lost host; short so a
#: still-dead host costs one refused dial per due attempt, not a stall.
_REJOIN_DIAL_TIMEOUT = 0.25

#: Frame header: unsigned 64-bit big-endian payload length.
_FRAME_HEADER = struct.Struct("!Q")

#: recv() slice cap; large frames arrive in pieces regardless.
_RECV_CHUNK = 1 << 20


class FramedSocket:
    """``mp.Connection`` byte surface over one TCP socket.

    Frames are length-prefixed (8-byte big-endian header) so
    ``recv_bytes`` returns exactly one peer ``send_bytes`` payload —
    the same whole-message semantics a pipe gives the worker loop.  The
    header is transport framing, not payload: ``ipc_bytes`` counts the
    pickled payload only, keeping the counter comparable across the pipe
    and tcp transports for identical messages.
    """

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)  # blocking frames; liveness is EOF-based
        self._sock = sock

    def send_bytes(self, payload: bytes) -> None:
        self._sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)

    def recv_bytes(self) -> bytes:
        (length,) = _FRAME_HEADER.unpack(self._recv_exact(_FRAME_HEADER.size))
        return self._recv_exact(length)

    def _recv_exact(self, count: int) -> bytes:
        parts: list[bytes] = []
        remaining = count
        while remaining:
            part = self._sock.recv(min(remaining, _RECV_CHUNK))
            if not part:
                raise EOFError("dm-mp tcp peer closed the connection")
            parts.append(part)
            remaining -= len(part)
        return b"".join(parts)

    def poll(self, timeout: float = 0.0) -> bool:
        ready, _, _ = select.select([self._sock], [], [], timeout)
        return bool(ready)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def _split_address(entry: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``; the EngineSpec grammar's shape."""
    host, sep, port = entry.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"malformed dm-mp tcp host {entry!r}; expected host:port"
        )
    return host, int(port)


def _connect(address: str, timeout: float) -> FramedSocket:
    """Dial one host, retrying with backoff until ``timeout`` elapses.

    Hosts are commonly started in parallel with the coordinator, so a
    refused connection is retried (the listener may not be up yet);
    only the deadline turns persistent failure into an error.
    """
    host, port = _split_address(address)
    deadline = time.monotonic() + timeout
    # Enough capped delays to span the timeout; the dial itself uses the
    # remaining budget, so the last attempt cannot overshoot.
    schedule: list[float] = []
    total = 0.0
    for delay in backoff_schedule(retries=64, base_delay=0.05, max_delay=0.5):
        if total >= timeout:
            break
        schedule.append(delay)
        total += delay

    def dial() -> FramedSocket:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectionError("connect deadline exhausted")
        sock = socket.create_connection((host, port), timeout=max(remaining, 0.05))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return FramedSocket(sock)

    try:
        return with_backoff(dial, exceptions=(OSError,), schedule=schedule)
    except OSError as exc:
        raise RuntimeError(
            f"cannot reach dm-mp tcp host {address} within {timeout:.1f}s: {exc}"
        ) from exc


class _HostHandle:
    """One connected host: framed socket, address, per-host counters.

    Duck-typed for :func:`~repro.utils.workers.stop_worker_pool` minus
    the ``process`` attribute — there is no local process to reap, the
    remote ``net-worker`` loops back to ``accept`` when the stop frame
    (or EOF) arrives.
    """

    __slots__ = ("conn", "address", "stats")

    def __init__(self, conn: FramedSocket, address: str, stats: EngineStats) -> None:
        self.conn = conn
        self.address = address
        self.stats = stats


class HostPool(MultiprocessDMEngine):
    """Exact DM evaluation sharded across remote ``net-worker`` hosts.

    Parameters
    ----------
    problem:
        The FJ-Vote instance, shipped once per host in the handshake.
    hosts:
        ``host:port`` targets (the ``dm-mp:tcp=<host:port,...>`` spec);
        one candidate shard per host, ``workers == len(hosts)``.
    connect_timeout:
        Seconds to keep retrying each host's connect before giving up.
    kwargs:
        Forwarded to :class:`BatchedDMEngine` locally *and* to every
        host's engine through the handshake, exactly like the process
        pool ships its ``engine_kwargs``.

    Everything above the wire is inherited from
    :class:`MultiprocessDMEngine` (arrays pickled into frames): sessions
    broadcast commits, deltas ship patched columns, ``min_fanout`` keeps
    tiny rounds local.  Only connection management, dispatch-with-degradation
    and teardown are socket-specific.
    """

    transport = "tcp"

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        hosts: Sequence[str],
        connect_timeout: float = 10.0,
        min_fanout: int | None = None,
        **kwargs: object,
    ) -> None:
        hosts = tuple(str(h) for h in hosts)
        if not hosts:
            raise ValueError("dm-mp tcp needs at least one host:port")
        for entry in hosts:
            _split_address(entry)  # fail fast on malformed addresses
        super().__init__(problem, workers=len(hosts), min_fanout=min_fanout, **kwargs)
        self.hosts = hosts
        self.connect_timeout = float(connect_timeout)
        self._handles: list[_HostHandle] | None = None
        #: Lost addresses pending rejoin: address -> [attempts, next_retry].
        self._lost_hosts: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _handshake(self, address: str, timeout: float) -> _HostHandle:
        """Dial one host and ship the hello (problem + engine kwargs).

        The handshake always carries the *current* problem, so a host
        rejoining after deltas starts from patched state (journal replay
        of the deltas is then an idempotent no-op).
        """
        conn = _connect(address, timeout)
        try:
            hello = pickle.dumps(
                ("hello", self.problem, self._engine_kwargs), _PICKLE_PROTOCOL
            )
            conn.send_bytes(hello)
            self.stats.ipc_bytes += len(hello)
            reply, nbytes = _recv_message(conn)
            self.stats.ipc_bytes += nbytes
            status, result, _ = reply
            if status != "ok":
                raise RuntimeError(
                    f"dm-mp tcp host {address} rejected the handshake:\n{result}"
                )
        except BaseException:
            conn.close()
            raise
        slot = self.hosts.index(address)
        return _HostHandle(conn, address, self.worker_stats[slot])

    def _ensure_pool(self) -> list[_HostHandle]:
        """Connect and handshake every host (idempotent, all-or-nothing)."""
        if self._handles is None:
            handles: list[_HostHandle] = []
            try:
                for address in self.hosts:
                    handles.append(
                        self._handshake(address, self.connect_timeout)
                    )
            except BaseException:
                for handle in handles:
                    handle.conn.close()
                raise
            self._handles = handles
            self._lost_hosts = {}
            self._pool_started = time.monotonic()
        return self._handles

    def close(self) -> None:
        """Send stop frames and close every socket (idempotent).

        Reuses the shared guarded-stop ladder; host handles carry no
        local process, so only the send and the socket close apply.
        """
        handles, self._handles = self._handles, None
        self._pool_started = None
        self._lost_hosts = {}
        if handles:
            stop_worker_pool(handles, lambda conn: conn.send_bytes(_STOP_BYTES))

    # ------------------------------------------------------------------
    # Dispatch with graceful degradation
    # ------------------------------------------------------------------
    def _lose_host(self, handle: _HostHandle) -> None:
        """Drop a dead host: later rounds shard across the survivors
        while the rejoin schedule re-dials its address."""
        handles = self._handles or []
        if handle in handles:
            handles.remove(handle)
        handle.conn.close()
        self.stats.hosts_lost += 1
        if handles:
            self.workers = len(handles)
        self._lost_hosts.setdefault(
            handle.address, [0, time.monotonic() + _REJOIN_DELAYS[0]]
        )

    def _try_rejoin(self) -> None:
        """Re-dial lost hosts whose backoff deadline has passed.

        A successful dial re-runs the full handshake (current problem),
        replays the coordinator journal, and restores the host to its
        original shard slot — selections stay byte-identical throughout
        because chunk contents and concatenation order never depended on
        *which* connection evaluates a chunk.
        """
        if not self._lost_hosts or self._handles is None:
            return
        for address, entry in list(self._lost_hosts.items()):
            if time.monotonic() < entry[1]:
                continue
            try:
                handle = self._handshake(address, _REJOIN_DIAL_TIMEOUT)
            except (RuntimeError, OSError, EOFError):
                entry[0] += 1
                delay = _REJOIN_DELAYS[min(int(entry[0]), len(_REJOIN_DELAYS) - 1)]
                entry[1] = time.monotonic() + delay
                continue
            del self._lost_hosts[address]
            self._handles.append(handle)
            self._handles.sort(key=lambda h: self.hosts.index(h.address))
            self.workers = len(self._handles)
            self.stats.hosts_rejoined += 1
            self._replay_journal(self.hosts.index(address), handle)

    def _inject_host_faults(self) -> None:
        """The ``net-sever-host`` fault point: cut a planned host's socket.

        Closing the coordinator side mid-round makes the next send fail
        with a real transport error, driving the production lose /
        re-shard / rejoin path (the remote net-worker sees EOF and loops
        back to ``accept``, ready for the rejoin dial).
        """
        if faults.active() is None or self._handles is None:
            return
        for handle in list(self._handles):
            spec = faults.maybe_fail(
                "net-sever-host", host=handle.address, round=self.pool_rounds
            )
            if spec is not None:
                handle.conn.close()

    def _receive(self, handle: _HostHandle):
        """One reply off ``handle``; folds counters, raises on worker err.

        Transport failures (EOF/OSError) propagate to the caller — they
        mean the *host* died and its chunk can be re-dispatched; a
        worker-side ``err`` status means the evaluation itself failed on
        a live host and re-running it elsewhere would fail the same way.
        """
        reply, nbytes = _recv_message(handle.conn)
        self.stats.ipc_bytes += nbytes
        status, result, stats = reply
        if status != "ok":
            self.close()
            raise RuntimeError(
                f"dm-mp tcp host {handle.address} failed:\n{result}"
            )
        for name, value in zip(_EVOLUTION_COUNTERS, stats):
            setattr(self.stats, name, getattr(self.stats, name) + value)
            setattr(handle.stats, name, getattr(handle.stats, name) + value)
        return result

    def _run(self, messages: Sequence[tuple]) -> list:
        """Fan out one round over the hosts, re-sharding around losses.

        Chunked ops keep their slots: ``results[i]`` always answers
        ``messages[i]``, however many times host failures re-dispatch it,
        so the caller's chunk-order concatenation (the byte-identity
        contract) never observes the loss.
        """
        self._ensure_pool()
        self._try_rejoin()
        self._inject_host_faults()
        handles = list(self._handles or [])
        round_start = time.monotonic()
        try:
            messages = list(messages)
            results: dict[int, object] = {}
            failed: list[int] = []
            dispatched: list[tuple[int, _HostHandle]] = []
            for index, message in enumerate(messages):
                handle = handles[index]
                try:
                    self.stats.ipc_bytes += _send_message(handle.conn, message)
                    dispatched.append((index, handle))
                except (BrokenPipeError, ConnectionError, OSError):
                    self._lose_host(handle)
                    failed.append(index)
            for index, handle in dispatched:
                try:
                    results[index] = self._receive(handle)
                except (EOFError, ConnectionError, OSError):
                    self._lose_host(handle)
                    failed.append(index)
            if failed:
                if messages[failed[0]][0] in _BROADCAST_OPS:
                    # Survivors already served the broadcast; missed
                    # commits self-heal from the next fan-out's seeds.
                    if not self._handles:
                        self.close()
                        raise RuntimeError(
                            "dm-mp tcp: every host is unreachable"
                        )
                else:
                    self._redispatch(messages, sorted(failed), results)
            return [results[index] for index in sorted(results)]
        finally:
            self.pool_rounds += 1
            self.pool_busy_s += time.monotonic() - round_start

    def _redispatch(
        self,
        messages: list,
        queue: list[int],
        results: dict[int, object],
    ) -> None:
        """Re-shard a lost host's chunks across the survivors, in waves.

        Each wave assigns at most one queued chunk per survivor (keeping
        hosts busy concurrently); a survivor that dies mid-wave sends its
        chunk back into the queue.  Runs until every chunk has a result
        or no hosts remain.
        """
        while queue:
            survivors = list(self._handles or [])
            if not survivors:
                self.close()
                raise RuntimeError(
                    "dm-mp tcp: every host was lost before the round's "
                    "chunks could be re-sharded"
                )
            wave: list[tuple[int, _HostHandle]] = []
            for handle, index in zip(survivors, list(queue)):
                try:
                    self.stats.ipc_bytes += _send_message(
                        handle.conn, messages[index]
                    )
                except (BrokenPipeError, ConnectionError, OSError):
                    self._lose_host(handle)
                    continue
                self.stats.chunks_resharded += 1
                wave.append((index, handle))
                queue.remove(index)
            for index, handle in wave:
                try:
                    results[index] = self._receive(handle)
                except (EOFError, ConnectionError, OSError):
                    self._lose_host(handle)
                    queue.append(index)

    # ------------------------------------------------------------------
    def pool_stats(self) -> dict[str, object]:
        """The process pool's snapshot plus host fleet accounting."""
        stats = super().pool_stats()
        connected = [h.address for h in (self._handles or [])]
        stats["hosts"] = list(self.hosts)
        stats["hosts_connected"] = connected
        stats["hosts_lost"] = int(self.stats.hosts_lost)
        stats["hosts_rejoined"] = int(self.stats.hosts_rejoined)
        stats["chunks_resharded"] = int(self.stats.chunks_resharded)
        return stats


# ----------------------------------------------------------------------
# The host side: ``repro net-worker``
# ----------------------------------------------------------------------
def _net_worker_connection(
    conn: FramedSocket,
    *,
    workers: int,
    store_dir: str | None,
    store_seed: int,
    engine_overrides: dict | None,
) -> None:
    """Serve one coordinator: handshake, then the shared dm-mp worker loop.

    The hello frame carries the pickled problem and engine kwargs.  With
    ``store_dir`` set, the shared :class:`WalkStore` is opened against
    that problem *before* the ok goes back — its manifest identity check
    turns a mismatched coordinator into a structured ``err`` reply
    instead of silently answering for the wrong problem.  ``--workers``
    > 1 builds a host-side ``dm-mp`` pool, so chunks fan out again
    locally (bitwise identical results either way).
    """
    try:
        message = pickle.loads(conn.recv_bytes())
    except (EOFError, OSError, pickle.UnpicklingError):
        return
    if not (
        isinstance(message, tuple) and len(message) == 3 and message[0] == "hello"
    ):
        conn.send_bytes(
            pickle.dumps(
                ("err", "expected a ('hello', problem, kwargs) handshake", None),
                _PICKLE_PROTOCOL,
            )
        )
        return
    _, problem, engine_kwargs = message
    engine_kwargs = {**engine_kwargs, **(engine_overrides or {})}
    store = None
    try:
        if store_dir is not None:
            from repro.core.walk_store import store_for_problem

            store = store_for_problem(
                problem, seed=store_seed, store_dir=store_dir
            )
        if workers > 1:
            engine: BatchedDMEngine = MultiprocessDMEngine(
                problem, workers=workers, **engine_kwargs
            )
        else:
            engine = BatchedDMEngine(problem, **engine_kwargs)
    except (ValueError, TypeError, OSError) as exc:
        conn.send_bytes(
            pickle.dumps(
                ("err", f"handshake rejected: {exc}", None), _PICKLE_PROTOCOL
            )
        )
        return
    try:
        conn.send_bytes(
            pickle.dumps(
                ("ok", (os.getpid(), socket.gethostname()), None),
                _PICKLE_PROTOCOL,
            )
        )
        _worker_loop(conn, problem, engine, watch_parent=False)
    finally:
        engine.close()
        if store is not None:
            store.close()


def run_net_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 1,
    store_dir: str | None = None,
    store_seed: int = 0,
    connections: int | None = None,
    on_ready: Callable[[str, int], None] | None = None,
    engine_overrides: dict | None = None,
) -> int:
    """Listen for ``HostPool`` coordinators and serve their chunks.

    One coordinator is served at a time (a coordinator holds its
    connection for the engine's lifetime); when it stops or disconnects
    the loop returns to ``accept``, so a long-lived host outlives many
    selection runs.  ``port=0`` binds a free port; ``on_ready`` receives
    the bound ``(host, port)`` before the first accept (the CLI prints
    its readiness line from it).  ``connections`` bounds how many
    coordinators are served before returning (``None`` = serve forever);
    returns the number served.
    """
    if workers < 1:
        raise ValueError(f"net-worker needs at least one worker, got {workers}")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    served = 0
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(8)
        bound_host, bound_port = server.getsockname()[:2]
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        while connections is None or served < connections:
            sock, _ = server.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = FramedSocket(sock)
            try:
                _net_worker_connection(
                    conn,
                    workers=workers,
                    store_dir=store_dir,
                    store_seed=store_seed,
                    engine_overrides=engine_overrides,
                )
            except (OSError, EOFError, ConnectionError):
                # A coordinator that dies mid-serve (socket reset, severed
                # link) must not take the host down: the loop returns to
                # ``accept`` so the coordinator can rejoin.
                pass
            finally:
                conn.close()
            served += 1
    finally:
        server.close()
    return served


__all__ = [
    "FramedSocket",
    "HostPool",
    "run_net_worker",
]
