"""Multiprocess fan-out over the batched DM engine (``--engine dm-mp``).

:class:`MultiprocessDMEngine` shards the candidate columns that
:meth:`~repro.core.engine.BatchedDMEngine._evolve_blocks` would evolve in
one process across a persistent pool of worker processes.  Per-candidate
delta evolutions are independent (each column of the ``(n, C)`` delta
matrix depends only on its own pinned seeds), so a greedy round splits into
``workers`` contiguous candidate chunks that evolve and score concurrently;
the parent concatenates the per-chunk score vectors in chunk order, which
keeps selections byte-identical to :class:`~repro.core.engine.BatchedDMEngine`
no matter how many workers run.

Problem state is shipped once per worker, at pool start: under the
``fork`` start method the matrices are inherited copy-on-write for free,
under ``forkserver``/``spawn`` the pickled
:class:`~repro.core.problem.FJVoteProblem` (minus its session-specific
seeded-trajectory cache, see ``FJVoteProblem.__getstate__``) travels with
the ``Process`` arguments.  Each worker builds its own private
:class:`BatchedDMEngine` from it — per-round messages then carry only seed
id chunks and score vectors, never matrices.

Every message is pickled and framed by the engine itself
(``send_bytes`` / ``recv_bytes``): candidate chunks out, score vectors or
dense rows back.  :attr:`~repro.core.engine.EngineStats.ipc_bytes` counts
every byte the parent actually moves through worker pipes (both
directions), so the counter is exact and deterministic.  Per-round
payloads are small next to the evolution they carry; the heavy state, the
problem, crosses once (free under ``fork``).

Selection sessions fan out too: :class:`MultiprocessDMSession` keeps the
parent-side committed trajectory (for values and win-min prefix probes)
exactly like its base class, and *broadcasts* every ``commit`` to the pool
so each worker folds the chosen seed into a worker-local committed
trajectory by the same one-column extension the parent performs.  A
worker that missed a broadcast (e.g. the pool started mid-session)
rebuilds the committed trajectory lazily from the ``(base, seeds)`` pair
every fan-out message carries, replaying the commit sequence so the
rebuilt trajectory is still bitwise identical.

On a single-core host the fan-out cannot beat the in-process engine on
wall-clock — IPC overhead buys nothing — but the sharding itself is
measurable either way: ``benchmarks/bench_engine_mp.py`` asserts on the
deterministic per-worker :class:`~repro.core.engine.EngineStats` counters
(critical-path dense column-steps), which translate to wall-clock on
multi-core hardware where each worker owns a memory domain.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from typing import Iterable, Sequence

import numpy as np

from repro.core import faults
from repro.core.engine import (
    BatchedDMEngine,
    BatchedDMSession,
    EngineStats,
    SeedSet,
)
from repro.core.problem import FJVoteProblem
from repro.utils.workers import stop_worker_pool

#: Work counters folded from worker deltas into the parent's ``stats``
#: (and per-worker into ``worker_stats``).  Probe accounting
#: (``evaluate_calls`` / ``sets_evaluated``) is *not* in this list: the
#: parent counts probes itself, exactly as the single-process engine
#: would, so the counters stay comparable across worker counts.  Workers
#: reply with these counters as a plain tuple in this order.
_EVOLUTION_COUNTERS = (
    "sparse_steps",
    "sparse_nnz",
    "dense_column_steps",
    "trajectory_steps",
    "repin_steps",
    "repin_inserted",
    "repin_rebuilds",
)

#: Worker-local committed trajectories kept per worker (FIFO eviction);
#: mirrors ``FJVoteProblem.SEEDED_TRAJECTORY_CACHE``.
_WORKER_SESSION_CACHE = 8

#: Delta broadcasts remembered for journal replay onto respawned workers.
#: Replay is idempotent (``_worker_apply_delta`` early-outs on current
#: versions), so the cap bounds memory, not correctness.
_DELTA_JOURNAL_CAP = 4

#: One identical message per worker; a lost worker's copy is dropped, not
#: re-dispatched (survivors already received theirs, and a respawned
#: worker recovers the state from the journal replay / lazy rebuild).
_BROADCAST_OPS = frozenset({"ping", "commit", "delta", "adopt"})

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_STOP_BYTES = pickle.dumps(("stop",), _PICKLE_PROTOCOL)

# The fan-out ops (``chunk`` / ``rows`` / ``ext`` / ``extrows``) and
# ``delta`` end in a reserved ``None`` field.  It keeps the framed layout
# that tcp net workers unpack stable, and with it the exact ``ipc_bytes``
# each op costs.


def _send_message(conn, message: tuple) -> int:
    """Frame and send one message; returns its exact serialized size.

    The engine pickles messages itself (``send_bytes``) so the
    ``ipc_bytes`` accounting measures precisely what crosses the pipe.
    """
    payload = pickle.dumps(message, _PICKLE_PROTOCOL)
    conn.send_bytes(payload)
    return len(payload)


def _recv_message(conn) -> tuple[tuple, int]:
    """Receive one framed message; returns ``(message, serialized size)``."""
    payload = conn.recv_bytes()
    return pickle.loads(payload), len(payload)


def _flatten_sets(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a list of (normalized) seed-id arrays into two flat arrays.

    Pickling many tiny ndarrays costs ~150 bytes of framing *each*; one
    ``(lengths, values)`` pair costs two headers however many sets ride
    along.
    """
    lengths = np.array([s.size for s in sets], dtype=np.int64)
    if sets:
        values = np.concatenate(sets).astype(np.int64, copy=False)
    else:
        values = np.empty(0, dtype=np.int64)
    return lengths, values


def _split_sets(lengths: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_flatten_sets`."""
    bounds = np.cumsum(np.asarray(lengths, dtype=np.int64))[:-1]
    return [
        np.array(chunk, dtype=np.int64)
        for chunk in np.split(np.asarray(values, dtype=np.int64), bounds)
    ]


def _unique_graphs(state) -> list:
    """Deduplicated graphs in first-occurrence order — parent and workers
    derive identical gids from their own state, so delta broadcasts can
    address graphs by gid without shipping object identities."""
    seen: dict[int, None] = {}
    graphs = []
    for graph in state.graphs:
        if id(graph) not in seen:
            seen[id(graph)] = None
            graphs.append(graph)
    return graphs


def _worker_apply_delta(
    problem: FJVoteProblem,
    engine: BatchedDMEngine,
    sessions: dict,
    report,
    columns_by_gid,
    opinions,
) -> None:
    """Fold a parent delta broadcast into the worker's problem and engine.

    Workers splice the shipped post-delta columns and opinion rows into
    their private arrays (never re-running the surgery: the parent ships
    final bytes, keeping worker state bit-identical), then adopt the
    parent's versions and cache drops via ``note_external_delta``.
    Idempotent per problem version, so a re-broadcast is a no-op.
    """
    if (
        problem.graph_version >= report.graph_version
        and problem.opinion_version >= report.opinion_version
    ):
        return
    graphs = _unique_graphs(problem.state)
    if columns_by_gid:
        for gid_key, columns in columns_by_gid.items():
            graphs[int(gid_key)].adopt_columns(
                columns, graphs[int(gid_key)].version + 1
            )
    if opinions:
        b0 = problem.state.initial_opinions
        b0.setflags(write=True)
        try:
            for q, nodes, values in opinions:
                b0[int(q), np.asarray(nodes, dtype=np.int64)] = values
        finally:
            b0.setflags(write=False)
    problem.note_external_delta(report)
    if report.target_touched(problem.target).size:
        engine._build_wt_scaled()
    dirty = set(report.touched_by_candidate) | set(report.opinions_by_candidate)
    if problem.target in dirty:
        for state in sessions.values():
            state["traj"] = None  # rebuilt lazily from the seed sequence


def _rebuild_session(engine: BatchedDMEngine, base: tuple, seeds: tuple) -> dict:
    """Worker-side committed state for a session, rebuilt from scratch.

    Replays the exact commit sequence a :class:`BatchedDMSession` performs
    — base trajectory, then one single-seed extension per commit — so the
    rebuilt trajectory is bitwise identical to the parent's regardless of
    whether the worker saw the individual commit broadcasts.
    """
    traj = engine.problem.target_trajectory(tuple(base))
    committed = list(base)
    for seed in list(seeds)[len(base) :]:
        traj = engine.extend_trajectory(
            traj,
            np.asarray(committed, dtype=np.int64),
            np.array([seed], dtype=np.int64),
        )
        committed.append(int(seed))
    return {"seeds": list(seeds), "traj": traj}


def _store_session(sessions: dict, sid: int, state: dict) -> None:
    """Insert session state with the FIFO eviction cap."""
    evict = [k for k in sessions if k != sid]
    while len(evict) + 1 > _WORKER_SESSION_CACHE:
        sessions.pop(evict.pop(0))
    sessions[sid] = state


def _worker_session(
    engine: BatchedDMEngine, sessions: dict, sid: int, base: tuple, seeds: tuple
) -> dict:
    """Fetch (or lazily rebuild) the worker's state for session ``sid``."""
    state = sessions.get(sid)
    if state is None or state["seeds"] != list(seeds) or state["traj"] is None:
        state = _rebuild_session(engine, base, seeds)
        _store_session(sessions, sid, state)
    return state


def _worker_main(conn, problem: FJVoteProblem, engine_kwargs: dict) -> None:
    """Process-pool worker: build the private engine, run the shared loop.

    The command dispatch itself lives in :func:`_worker_loop`, shared with
    the TCP net-worker of :mod:`repro.core.engine_net` — same ops, same
    framed replies, whatever carries the bytes.
    """
    engine = BatchedDMEngine(problem, **engine_kwargs)
    _worker_loop(conn, problem, engine, watch_parent=True)


def _worker_loop(
    conn,
    problem: FJVoteProblem,
    engine: BatchedDMEngine,
    *,
    watch_parent: bool = True,
) -> None:
    """The dm-mp worker command loop, transport-agnostic.

    ``conn`` is anything with the ``mp.Connection`` byte surface
    (``recv_bytes`` / ``send_bytes`` / ``poll``): a worker-pool pipe end
    or the net-worker's framed TCP socket.  Every reply carries the delta
    of the worker engine's evolution counters (as a tuple ordered like
    ``_EVOLUTION_COUNTERS``) so the parent can account the work each
    worker actually performed; payload arrays are pickled into the ack.

    ``watch_parent`` enables the orphan watchdog for forked pool members;
    net workers serve a remote coordinator whose death arrives as plain
    EOF instead.
    """
    sessions: dict[int, dict] = {}
    # Workers forked later inherit duplicates of earlier workers'
    # parent-side pipe fds, so a SIGKILLed parent does *not* deliver EOF
    # to every sibling — watch for orphaning (reparenting) instead, or
    # the pool outlives a crashed server.
    parent_pid = os.getppid() if watch_parent else None
    while True:
        try:
            if watch_parent:
                orphaned = False
                while not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        orphaned = True
                        break
                if orphaned:
                    break
            message = pickle.loads(conn.recv_bytes())
        except (EOFError, KeyboardInterrupt, OSError):
            break
        op = message[0]
        if op == "stop":
            break
        try:
            engine.stats.reset()
            result = None
            payload = None
            if op == "ping":
                result = (os.getpid(), mp.current_process().name)
            elif op == "chunk":
                _, lengths, values, _ = message
                sets = _split_sets(lengths, values)
                # ``evaluate`` (not ``_chunked_scores``) so a net worker
                # hosting its own dm-mp pool fans the chunk out again;
                # results are bitwise identical either way.
                payload = engine.evaluate(sets)
            elif op == "ext":
                _, sid, base, seeds, cand, _ = message
                cand = np.asarray(cand, dtype=np.int64)
                state = _worker_session(engine, sessions, sid, base, seeds)
                payload = engine.extension_values(
                    state["traj"], np.asarray(seeds, dtype=np.int64), cand
                )
            elif op == "extrows":
                # Like "ext" but unscored: the (chunk, n) horizon rows go
                # back so the parent scores each through the canonical
                # width-1 path (batch-stable serving responses).
                _, sid, base, seeds, cand, _ = message
                cand = np.asarray(cand, dtype=np.int64)
                state = _worker_session(engine, sessions, sid, base, seeds)
                payload = engine.extension_rows(
                    state["traj"], np.asarray(seeds, dtype=np.int64), cand
                )
            elif op == "rows":
                _, lengths, values, _ = message
                sets = _split_sets(lengths, values)
                payload = engine.target_opinion_rows(sets)
            elif op == "delta":
                _, report, columns_by_gid, opinions, _ = message
                _worker_apply_delta(
                    problem, engine, sessions, report, columns_by_gid, opinions
                )
            elif op == "commit":
                _, sid, base, before, seed = message
                state = sessions.get(sid)
                if (
                    state is not None
                    and state["traj"] is not None
                    and state["seeds"] == list(before)
                ):
                    state["traj"] = engine.extend_trajectory(
                        state["traj"],
                        np.asarray(before, dtype=np.int64),
                        np.array([seed], dtype=np.int64),
                    )
                    state["seeds"].append(int(seed))
                else:
                    # Missed or out-of-order broadcast: remember the
                    # seed sequence, rebuild lazily on the next fan-out.
                    sessions[sid] = {
                        "seeds": list(before) + [int(seed)],
                        "traj": None,
                    }
            elif op == "adopt":
                # Journal replay onto a respawned worker: register the
                # session's committed seed sequence; the trajectory is
                # rebuilt lazily (``_rebuild_session`` replays the exact
                # commit sequence, so it is bitwise the parent's state).
                _, sid, base, seeds = message
                _store_session(
                    sessions, sid, {"seeds": list(seeds), "traj": None}
                )
            else:
                raise ValueError(f"unknown dm-mp worker op {op!r}")
            stats = tuple(
                int(getattr(engine.stats, name)) for name in _EVOLUTION_COUNTERS
            )
            out = result if payload is None else payload
            conn.send_bytes(pickle.dumps(("ok", out, stats), _PICKLE_PROTOCOL))
        except Exception as exc:  # pragma: no cover - worker-side failures
            import traceback

            conn.send_bytes(
                pickle.dumps(
                    ("err", f"{exc}\n{traceback.format_exc()}", None),
                    _PICKLE_PROTOCOL,
                )
            )


class _WorkerHandle:
    """One pool member: the process and the parent end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn


class MultiprocessDMSession(BatchedDMSession):
    """Warm-started session whose commits are broadcast to the worker pool.

    The parent keeps the committed trajectory exactly like
    :class:`BatchedDMSession` (values, ``gain=None`` commits and win-min
    prefix probes are single-column work, cheapest done locally); each
    round's ``marginal_gains`` fans the candidate chunks out with the
    session id, and each ``commit`` tells every worker to fold the chosen
    seed into its local copy of the committed trajectory.
    """

    def __init__(self, engine: "MultiprocessDMEngine", base: SeedSet = ()) -> None:
        super().__init__(engine, base)
        self._base = tuple(self._seeds)
        self._sid = engine._next_session_id()

    def marginal_gains(self, candidates: SeedSet) -> np.ndarray:
        self._ensure_fresh()  # a delta may have scheduled a lazy rebuild
        values = self.engine.session_extension_values(
            self._sid, self._base, tuple(self._seeds), self._traj, candidates
        )
        return values - self._value

    def coalesced_gains(self, candidates: SeedSet) -> np.ndarray:
        """Batch-stable gains over the pool: fanned rows, parent scoring.

        Workers return unscored extension rows (bitwise identical to the
        single-process engine's at every worker count); the parent scores
        each through the canonical width-1 path, so coalesced responses
        match serial ones byte for byte across pool sizes.
        """
        self._ensure_fresh()
        rows = self.engine.session_extension_rows(
            self._sid, self._base, tuple(self._seeds), self._traj, candidates
        )
        values = np.array(
            [self.engine.score_target_row(row) for row in rows],
            dtype=np.float64,
        )
        return values - self._value

    def commit(self, seed: int, *, gain: float | None = None) -> float:
        before = tuple(self._seeds)
        value = super().commit(seed, gain=gain)
        self.engine.broadcast_commit(self._sid, self._base, before, int(seed))
        return value

    def _on_delta(self, report, mode: str = "auto") -> None:
        # Workers rebuild their committed trajectories from the seed
        # sequence after a delta, so the parent must rebuild too: a
        # patched (floating-point-corrected) parent trajectory would
        # disagree bitwise with the worker-side rebuilds that fanned-out
        # rounds read from.
        super()._on_delta(report, "rebuild")


class MultiprocessDMEngine(BatchedDMEngine):
    """Exact DM evaluation sharded across a persistent process pool.

    Parameters
    ----------
    problem:
        The FJ-Vote instance (shipped to each worker once, at pool start).
    workers:
        Pool size (the ``dm-mp:<workers>`` CLI suffix); must be >= 1.
    start_method:
        ``multiprocessing`` start method: ``"fork"`` (default where
        available — matrices are inherited for free), ``"forkserver"`` or
        ``"spawn"`` (the problem is pickled to the worker instead).
    min_fanout:
        Below this many seed sets per call the parent — itself a full
        batched engine holding the same state — evaluates locally: a CELF
        stale-entry refresh is one column, not worth a round-trip.
        Results are bitwise identical either way.  Default ``2 * workers``.
    kwargs:
        Forwarded to :class:`BatchedDMEngine` in the parent *and* every
        worker (``batch_rows``, ``densify_threshold``, ``repin``, ...).

    The pool starts lazily on the first fanned-out call and is released by
    :meth:`close` (also via ``with``, garbage collection, or interpreter
    exit).  The engine keeps per-worker
    :class:`EngineStats` in ``worker_stats`` — the max dense-column-step
    share across workers is the round's critical path, the deterministic
    scaling metric of ``benchmarks/bench_engine_mp.py``.
    """

    #: The data plane :meth:`pool_stats` reports (``HostPool`` rides tcp).
    transport = "pipe"

    def __init__(
        self,
        problem: FJVoteProblem,
        *,
        workers: int = 2,
        start_method: str | None = None,
        min_fanout: int | None = None,
        **kwargs: object,
    ) -> None:
        super().__init__(problem, **kwargs)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"dm-mp needs at least one worker, got {workers}")
        self.workers = workers
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = str(start_method)
        self.min_fanout = (
            2 * workers if min_fanout is None else max(1, int(min_fanout))
        )
        self.worker_stats = [EngineStats() for _ in range(workers)]
        #: Fan-out rounds dispatched and wall time spent inside them,
        #: cumulative across pool restarts (``pool_stats`` derives idle
        #: time from the pool's uptime).
        self.pool_rounds = 0
        self.pool_busy_s = 0.0
        self._pool_started: float | None = None
        self._engine_kwargs = dict(kwargs)
        self._handles: list[_WorkerHandle] | None = None
        self._session_counter = 0
        #: Supervision state: worker slots detected dead (healed by
        #: respawn at the next dispatch) and the coordinator-side journal
        #: a respawned worker replays — committed seed sequences per live
        #: session plus the recent delta broadcasts.
        self._dead: set[int] = set()
        self._session_journal: dict[int, tuple[tuple, tuple]] = {}
        self._delta_journal: list[tuple] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> list[_WorkerHandle]:
        if self._handles is None:
            ctx = mp.get_context(self.start_method)
            self._handles = [self._spawn_worker(ctx) for _ in range(self.workers)]
            self._dead = set()
            self._pool_started = time.monotonic()
        return self._handles

    def _spawn_worker(self, ctx) -> _WorkerHandle:
        """Start one pool member on the current problem; returns its handle."""
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.problem, self._engine_kwargs),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def close(self) -> None:
        """Stop the pool (idempotent).

        Robust to workers that died mid-round: sends are guarded and joins
        escalate ``join -> terminate -> kill`` with bounded timeouts, so a
        dead or wedged pipe can never hang the caller.  The engine
        restarts lazily if used again.
        """
        handles, self._handles = self._handles, None
        self._pool_started = None
        self._dead = set()
        if handles:
            stop_worker_pool(handles, lambda conn: conn.send_bytes(_STOP_BYTES))

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    def ping(self) -> list[tuple[int, str]]:
        """Round-trip every worker; returns ``(pid, process name)`` pairs."""
        return self._run([("ping",)] * self.workers)

    def pool_stats(self) -> dict[str, object]:
        """Live pool accounting (the serving layer's ``stats`` op).

        ``rounds`` counts fan-out dispatches, ``busy_s`` the wall time
        spent inside them, ``idle_s`` the remainder of the running pool's
        uptime.  Round/busy counters are cumulative across pool restarts;
        only the uptime window resets.
        """
        started = self._handles is not None
        uptime = 0.0
        if started and self._pool_started is not None:
            uptime = time.monotonic() - self._pool_started
        busy = float(self.pool_busy_s)
        return {
            "backend": type(self).__name__,
            "workers": self.workers,
            "transport": self.transport,
            "started": started,
            "rounds": int(self.pool_rounds),
            "busy_s": round(busy, 6),
            "idle_s": round(max(uptime - busy, 0.0), 6),
            "workers_lost": int(self.stats.workers_lost),
            "workers_respawned": int(self.stats.workers_respawned),
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(self, messages: Sequence[tuple]) -> list:
        """Supervised dispatch: send, gather, survive worker deaths.

        Workers compute concurrently — all sends complete before the first
        receive — and replies are folded into ``stats`` / ``worker_stats``.
        Every byte actually crossing a pipe, in either direction, lands in
        ``stats.ipc_bytes``.

        A worker whose pipe fails mid-round (EOF, broken pipe) is marked
        lost (``stats.workers_lost``): its chunked message re-dispatches
        to a survivor in the same round (``stats.chunks_resharded`` —
        slots are kept, so ``results[i]`` always answers ``messages[i]``
        and the chunk-order concatenation never observes the loss), while
        broadcast copies are simply dropped.  Dead slots are healed by
        :meth:`_respawn_worker` at the start of the next dispatch, so the
        pool returns to full strength with journal-replayed state.  A
        worker-side ``err`` status still raises — the evaluation itself
        failed on a live worker and would fail anywhere.
        """
        handles = self._ensure_pool()
        self._heal_pool()
        self._inject_worker_faults()
        round_start = time.monotonic()
        try:
            messages = list(messages)
            results: dict[int, object] = {}
            failed: list[int] = []
            dispatched: list[tuple[int, _WorkerHandle]] = []
            for index, message in enumerate(messages):
                if index in self._dead:
                    failed.append(index)
                    continue
                handle = handles[index]
                try:
                    self.stats.ipc_bytes += _send_message(handle.conn, message)
                    dispatched.append((index, handle))
                except (BrokenPipeError, ConnectionError, OSError):
                    self._lose_worker(index)
                    failed.append(index)
            for index, handle in dispatched:
                try:
                    reply, nbytes = _recv_message(handle.conn)
                except (EOFError, ConnectionError, OSError):
                    self._lose_worker(index)
                    failed.append(index)
                    continue
                self.stats.ipc_bytes += nbytes
                results[index] = self._fold_reply(index, reply)
            if failed:
                if messages[failed[0]][0] in _BROADCAST_OPS:
                    # Survivors already served the broadcast; the
                    # journal replay on respawn covers the dead workers.
                    if len(self._dead) >= len(handles):
                        self.close()
                        raise RuntimeError("dm-mp: every worker died")
                else:
                    self._redispatch(messages, sorted(failed), results)
            return [results[index] for index in sorted(results)]
        finally:
            self.pool_rounds += 1
            self.pool_busy_s += time.monotonic() - round_start

    def _fold_reply(self, slot: int, reply: tuple):
        """Account one worker reply; raises on a worker-side ``err``."""
        status, result, stats = reply
        if status != "ok":
            self.close()
            raise RuntimeError(f"dm-mp worker {slot} failed:\n{result}")
        for name, value in zip(_EVOLUTION_COUNTERS, stats):
            setattr(self.stats, name, getattr(self.stats, name) + value)
            worker = self.worker_stats[slot]
            setattr(worker, name, getattr(worker, name) + value)
        return result

    def _lose_worker(self, index: int) -> None:
        """Mark slot ``index`` dead; the next dispatch respawns it."""
        if index in self._dead:
            return
        self._dead.add(index)
        self.stats.workers_lost += 1
        if self._handles is not None:
            try:
                self._handles[index].conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _redispatch(
        self,
        messages: list,
        queue: list[int],
        results: dict[int, object],
    ) -> None:
        """Re-shard a dead worker's chunks across the survivors, in waves.

        Each wave assigns at most one queued message per survivor; a
        survivor that dies mid-wave sends its message back into the
        queue.  Results are keyed by *message* index, so the chunk-order
        concatenation is unchanged by who answered.
        """
        while queue:
            handles = self._handles or []
            survivors = [
                slot for slot in range(len(handles)) if slot not in self._dead
            ]
            if not survivors:
                self.close()
                raise RuntimeError(
                    "dm-mp: every worker was lost before the round's "
                    "chunks could be re-dispatched"
                )
            wave: list[tuple[int, int, _WorkerHandle]] = []
            for slot, index in zip(survivors, list(queue)):
                handle = handles[slot]
                try:
                    self.stats.ipc_bytes += _send_message(
                        handle.conn, messages[index]
                    )
                except (BrokenPipeError, ConnectionError, OSError):
                    self._lose_worker(slot)
                    continue
                self.stats.chunks_resharded += 1
                wave.append((index, slot, handle))
                queue.remove(index)
            for index, slot, handle in wave:
                try:
                    reply, nbytes = _recv_message(handle.conn)
                except (EOFError, ConnectionError, OSError):
                    self._lose_worker(slot)
                    queue.append(index)
                    continue
                self.stats.ipc_bytes += nbytes
                results[index] = self._fold_reply(slot, reply)

    def _heal_pool(self) -> None:
        """Respawn every dead slot before the next round dispatches."""
        if not self._dead or self._handles is None:
            return
        for index in sorted(self._dead):
            self._respawn_worker(index)
        self._dead = set()

    def _respawn_worker(self, index: int) -> None:
        """Replace a dead pool member and replay the journal onto it.

        The replacement gets the *current* problem.  Journal replay then
        registers committed session seed sequences (``adopt`` —
        trajectories rebuild lazily, bitwise identical) and re-sends
        recent delta broadcasts (idempotent on the already-current
        problem).
        """
        handles = self._handles
        if handles is None:  # pragma: no cover - close raced the heal
            return
        stop_worker_pool([handles[index]], lambda conn: conn.send_bytes(_STOP_BYTES))
        handles[index] = self._spawn_worker(mp.get_context(self.start_method))
        self.stats.workers_respawned += 1
        self._replay_journal(index, handles[index])

    def _replay_journal(self, slot: int, handle: _WorkerHandle) -> None:
        """Ship the coordinator-side journal to one (re)spawned worker."""
        replay: list[tuple] = []
        for sid, (base, seeds) in self._session_journal.items():
            replay.append(("adopt", sid, base, seeds))
        replay.extend(self._delta_journal)
        for message in replay:
            self.stats.ipc_bytes += _send_message(handle.conn, message)
        for _ in replay:
            reply, nbytes = _recv_message(handle.conn)
            self.stats.ipc_bytes += nbytes
            self._fold_reply(slot, reply)

    def _inject_worker_faults(self) -> None:
        """The ``mp-kill-worker`` fault point: SIGKILL a planned victim.

        The kill is real — detection and recovery then run the exact
        production path (EOF on the pipe, re-shard, respawn), which is
        the point of injecting here rather than faking a dead handle.
        """
        if faults.active() is None or self._handles is None:
            return
        for index, handle in enumerate(self._handles):
            process = getattr(handle, "process", None)
            if index in self._dead or process is None:
                continue
            spec = faults.maybe_fail(
                "mp-kill-worker", worker=index, round=self.pool_rounds
            )
            if spec is not None:
                process.kill()
                # Reap before dispatch so the death is visible this round.
                process.join(timeout=5.0)

    def _chunk_indices(self, count: int) -> list[np.ndarray]:
        """Deterministic contiguous index chunks, one per worker, no empties."""
        return [
            idx
            for idx in np.array_split(np.arange(count), self.workers)
            if idx.size
        ]

    def _sets_message(self, op: str, chunk_sets: list[np.ndarray]) -> tuple:
        """A ``chunk``/``rows`` request: the seed sets travel flattened."""
        return (op, *_flatten_sets(chunk_sets), None)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def open_session(self, base: SeedSet = ()) -> MultiprocessDMSession:
        return MultiprocessDMSession(self, base)

    def _next_session_id(self) -> int:
        self._session_counter += 1
        return self._session_counter

    def evaluate(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        sets = self._normalize_sets(seed_sets)
        self.stats.evaluate_calls += 1
        self.stats.sets_evaluated += len(sets)
        if not sets:
            return np.empty(0, dtype=np.float64)
        if len(sets) < self.min_fanout:
            return self._chunked_scores(sets)
        messages = [
            self._sets_message("chunk", [sets[i] for i in idx])
            for idx in self._chunk_indices(len(sets))
        ]
        return np.concatenate(self._run(messages))

    def target_opinion_rows(self, seed_sets: Iterable[SeedSet]) -> np.ndarray:
        """``(C, n)`` horizon opinion rows, fanned out across the pool.

        Chunks of seed sets evolve concurrently and each worker pickles
        its dense block into the reply.  Small requests run locally, like
        ``evaluate``.
        """
        sets = self._normalize_sets(seed_sets)
        if len(sets) < self.min_fanout:
            return super().target_opinion_rows(sets)
        chunks = self._chunk_indices(len(sets))
        results = self._run(
            [self._sets_message("rows", [sets[i] for i in idx]) for idx in chunks]
        )
        rows = np.empty((len(sets), self.problem.n), dtype=np.float64)
        for idx, block in zip(chunks, results):
            rows[idx[0] : idx[-1] + 1] = block
        return rows

    def session_extension_values(
        self,
        sid: int,
        base: tuple,
        seeds: tuple,
        traj: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """One session round: candidate chunks fanned out with the session id.

        Small rounds (CELF refreshes) run on the parent's own committed
        trajectory; both paths produce bitwise-identical values.
        """
        cand = np.asarray(candidates, dtype=np.int64)
        if cand.size == 0:
            return np.empty(0, dtype=np.float64)
        if cand.size < self.min_fanout:
            return self.extension_values(
                traj, np.asarray(seeds, dtype=np.int64), cand
            )
        chunks = self._chunk_indices(cand.size)
        return np.concatenate(
            self._run([("ext", sid, base, seeds, cand[idx], None) for idx in chunks])
        )

    def session_extension_rows(
        self,
        sid: int,
        base: tuple,
        seeds: tuple,
        traj: np.ndarray,
        candidates: SeedSet,
    ) -> np.ndarray:
        """Unscored extension rows for one session round, fanned out.

        The rows counterpart of :meth:`session_extension_values`: workers
        evolve their candidate chunks against the session's committed
        trajectory and reply with the ``(chunk, n)`` horizon rows, so the
        parent can score each row through the canonical width-1 path
        (:meth:`MultiprocessDMSession.coalesced_gains`).  Rows are
        bitwise identical to the local :meth:`BatchedDMEngine.extension_rows`
        at every worker count and batch size.
        """
        cand = np.asarray(candidates, dtype=np.int64)
        n = self.problem.n
        if cand.size == 0:
            return np.empty((0, n), dtype=np.float64)
        if cand.size < self.min_fanout:
            return self.extension_rows(
                traj, np.asarray(seeds, dtype=np.int64), cand
            )
        chunks = self._chunk_indices(cand.size)
        results = self._run(
            [("extrows", sid, base, seeds, cand[idx], None) for idx in chunks]
        )
        rows = np.empty((cand.size, n), dtype=np.float64)
        for idx, block in zip(chunks, results):
            rows[idx[0] : idx[-1] + 1] = block
        return rows

    def apply_delta(self, report, *, sessions: str = "auto") -> None:
        """Broadcast a delta to the pool, then refresh the parent engine.

        Workers patch their problem state in place instead of being
        restarted with a re-shipped problem: the broadcast carries only
        the touched columns' post-delta bytes (and changed opinion rows).
        Warm sessions are rebuilt (never patched): workers reconstruct
        committed trajectories from seed sequences, and parent/worker
        state must stay bitwise identical.  A pool that has not started
        yet needs no broadcast — it forks from the already-patched
        problem.
        """
        if report.empty:
            return
        if self._handles is not None:
            state = self.problem.state
            graphs = _unique_graphs(state)
            gid_of = {id(g): i for i, g in enumerate(graphs)}
            columns_by_gid: dict[int, dict] = {}
            for q, touched in report.touched_by_candidate.items():
                graph = state.graph(int(q))
                gid = gid_of[id(graph)]
                if gid in columns_by_gid:
                    continue
                columns_by_gid[gid] = {
                    int(t): tuple(np.array(part) for part in graph.in_neighbors(int(t)))
                    for t in np.asarray(touched, dtype=np.int64)
                }
            opinions = None
            if report.opinions_by_candidate:
                b0 = state.initial_opinions
                opinions = [
                    (
                        int(q),
                        np.asarray(nodes, dtype=np.int64),
                        np.array(b0[int(q), np.asarray(nodes, dtype=np.int64)]),
                    )
                    for q, nodes in report.opinions_by_candidate.items()
                ]
            # Journaled before dispatch so a worker that dies *during*
            # this broadcast still sees the delta on respawn replay
            # (idempotent: respawns re-ship the already-patched problem).
            self._delta_journal.append(
                ("delta", report, columns_by_gid, opinions, None)
            )
            del self._delta_journal[:-_DELTA_JOURNAL_CAP]
            self._run([self._delta_journal[-1]] * self.workers)
        super().apply_delta(report, sessions=sessions)

    def broadcast_commit(self, sid: int, base: tuple, before: tuple, seed: int) -> None:
        """Tell every worker to fold ``seed`` into session ``sid``'s state.

        A no-op while the pool has not started: the first fan-out message
        carries the full seed sequence and workers rebuild from it.
        """
        if self._handles is None:
            return
        self._journal_commit(sid, tuple(base), tuple(before) + (int(seed),))
        self._run([("commit", sid, base, before, seed)] * self.workers)

    def _journal_commit(self, sid: int, base: tuple, seeds: tuple) -> None:
        """Record session ``sid``'s committed seed sequence (FIFO-capped).

        The journal is what a respawned worker replays (as ``adopt``
        messages) to recover every live session's committed state; the
        cap mirrors the worker-side session cache, so the journal never
        promises more sessions than a worker would retain anyway.
        """
        journal = self._session_journal
        journal.pop(sid, None)
        journal[sid] = (base, seeds)
        while len(journal) > _WORKER_SESSION_CACHE:
            journal.pop(next(iter(journal)))
