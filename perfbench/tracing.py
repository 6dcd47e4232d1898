"""Span tracing from outside the program: wrap layer entry points, keep spans.

Nothing in ``src/`` is instrumented.  :func:`install` replaces the public
functions and methods listed in :data:`TARGETS` with thin wrappers that
record one span per call — ``(id, name, start, end, parent, request)`` —
in memory; :meth:`Tracer.dump` writes them out once, at the end of the
process.  Times come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on
Linux), so spans from the benchmark, the offline child and the server
process share one time base.

A span's *layer* is the part of its name before the first dot; the layers
are named after the repository's modules (``datasets``, ``problem``,
``engine``, ``engine_mp``, ``voting``, ``greedy``, ``walk_store``,
``random_walk``, ``serve``, ``eval``).  :func:`layer_summary` turns the
spans into self times per layer: a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, attribute path, span name).  An attribute path with a dot is a
#: method defined on that class; the wrapper is installed on the class
#: itself, so every instance and subclass that inherits it is covered.
#: Module-level functions are also re-bound wherever another ``repro``
#: module imported them by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.datasets.yelp", "yelp_like", "datasets.yelp_like"),
    ("repro.datasets.synth", "Dataset.problem", "problem.build"),
    ("repro.core.problem", "FJVoteProblem.others_by_user", "problem.others_by_user"),
    ("repro.core.problem", "FJVoteProblem.target_trajectory", "problem.target_trajectory"),
    ("repro.core.problem", "FJVoteProblem.objective", "problem.objective"),
    ("repro.core.problem", "FJVoteProblem.target_wins", "problem.target_wins"),
    ("repro.core.problem", "FJVoteProblem.apply_delta", "problem.apply_delta"),
    ("repro.eval.harness", "select_seeds", "eval.select_seeds"),
    ("repro.core.greedy", "greedy_engine", "greedy.greedy_engine"),
    ("repro.core.greedy", "run_selection_rounds", "greedy.run_selection_rounds"),
    ("repro.core.engine", "EngineSpec.build", "engine.build"),
    ("repro.core.engine", "ObjectiveEngine.open_session", "engine.open_session"),
    ("repro.core.engine", "BatchedDMEngine.open_session", "engine.open_session"),
    ("repro.core.engine", "WalkEngine.open_session", "engine.open_session"),
    ("repro.core.engine", "SelectionSession.marginal_gains", "engine.marginal_gains"),
    ("repro.core.engine", "SelectionSession.coalesced_gains", "engine.coalesced_gains"),
    ("repro.core.engine", "SelectionSession.commit", "engine.commit"),
    ("repro.core.engine", "BatchedDMSession.marginal_gains", "engine.marginal_gains"),
    ("repro.core.engine", "BatchedDMSession.coalesced_gains", "engine.coalesced_gains"),
    ("repro.core.engine", "BatchedDMSession.commit", "engine.commit"),
    ("repro.core.engine", "WalkSession.commit", "engine.commit"),
    ("repro.core.engine", "WalkEngine.marginal_gains", "engine.marginal_gains"),
    ("repro.core.engine", "WalkEngine.prepare_budget", "engine.prepare_budget"),
    ("repro.core.engine", "ObjectiveEngine.query_sets", "engine.query_sets"),
    ("repro.core.engine", "BatchedDMEngine.query_sets", "engine.query_sets"),
    ("repro.core.engine", "ObjectiveEngine.apply_delta", "engine.apply_delta"),
    ("repro.core.engine", "BatchedDMEngine.apply_delta", "engine.apply_delta"),
    ("repro.core.engine", "WalkEngine.apply_delta", "engine.apply_delta"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.open_session", "engine.open_session"),
    ("repro.core.engine_mp", "MultiprocessDMSession.marginal_gains", "engine.marginal_gains"),
    ("repro.core.engine_mp", "MultiprocessDMSession.coalesced_gains", "engine.coalesced_gains"),
    ("repro.core.engine_mp", "MultiprocessDMSession.commit", "engine.commit"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.ping", "engine_mp.ping"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.evaluate", "engine_mp.evaluate"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.target_opinion_rows", "engine_mp.target_opinion_rows"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.session_extension_values", "engine_mp.session_extension_values"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.session_extension_rows", "engine_mp.session_extension_rows"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.broadcast_commit", "engine_mp.broadcast_commit"),
    ("repro.core.engine_mp", "MultiprocessDMEngine.apply_delta", "engine_mp.apply_delta"),
    ("repro.core.walk_store", "store_for_problem", "walk_store.open"),
    ("repro.core.walk_store", "WalkStore.per_node_view", "walk_store.per_node_view"),
    ("repro.core.walk_store", "WalkStore.uniform_view", "walk_store.uniform_view"),
    ("repro.core.walk_store", "WalkStore.apply_delta", "walk_store.apply_delta"),
    ("repro.core.walk_store", "_WalkPool.ensure_walks", "walk_store.ensure_walks"),
    ("repro.core.walk_store", "_WalkPool.block", "walk_store.block"),
    ("repro.core.random_walk", "generate_reverse_walks_streamed", "random_walk.generate"),
    ("repro.core.random_walk", "TruncatedWalks.__init__", "random_walk.index"),
    ("repro.serve.batcher", "EngineHub.__init__", "serve.hub_init"),
    ("repro.serve.batcher", "EngineHub.warm", "serve.warm"),
    ("repro.serve.batcher", "EngineHub.session", "serve.session"),
    ("repro.serve.batcher", "EngineHub.top_k", "serve.top_k"),
    ("repro.serve.batcher", "EngineHub.apply_delta", "serve.apply_delta"),
    ("repro.serve.batcher", "CoalescingBatcher.execute", "serve.execute"),
)

#: Scoring entry points of every score class (wrapped where defined).
SCORE_METHODS = (
    "score_targets",
    "score_targets_T",
    "contributions_batch",
    "contributions_batch_T",
)


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds ``[id, name, start, end, parent, request]`` lists;
    ``request`` is whatever :attr:`request` was set to when the span
    opened (the offline child sets it per selection or query; a serve
    batch sets it to the ids of the requests it answers).  ``events``
    carries per-call details that are not spans (batch membership, greedy
    evaluation counts).  Forked children (the ``dm-mp`` worker pool) stop
    recording: their spans could never be written out.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.events: list[list[Any]] = []
        self.request: Any = None
        self.enabled = True
        self.t_start = time.monotonic()
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Callable[["Tracer", tuple, Any, list], None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next
                tracer._next += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            outer = tracer.request
            if name in _REQUEST_OF:
                tracer.request = _REQUEST_OF[name](args)
            request = tracer.request
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tracer.request = outer
                span = [span_id, name, start, end, parent, request]
                tracer.spans.append(span)
            if on_call is not None:
                on_call(tracer, args, result, span)
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced

    def event(self, *fields: Any) -> None:
        if self.enabled:
            self.events.append(list(fields))

    def dump(self, path: str, **extra: Any) -> None:
        payload = {
            "pid": os.getpid(),
            "t_start": self.t_start,
            "t_end": time.monotonic(),
            "spans": self.spans,
            "events": self.events,
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _greedy_count(tracer: Tracer, args: tuple, result: Any, span: list) -> None:
    tracer.event("greedy.evaluations", int(result.evaluations))


def _batch_members(tracer: Tracer, args: tuple, result: Any, span: list) -> None:
    # args = (batcher, requests)
    tracer.event("serve.batch", span[2], span[3], [r.id for r in args[1]])


#: Spans that start a request of their own: a serve batch is identified
#: by the ids of the requests it answers.
_REQUEST_OF = {
    "serve.execute": lambda args: "batch:" + ",".join(str(r.id) for r in args[1]),
}

_ON_CALL = {
    "greedy.run_selection_rounds": _greedy_count,
    "serve.execute": _batch_members,
}


def _rebind_everywhere(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module attribute (or module-level dict entry)
    bound to ``original`` at ``wrapped`` — covers ``from x import f`` in
    other modules and registries built at import time."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                # Registries such as the CLI's dataset table.
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapped


def install(tracer: Tracer) -> int:
    """Wrap every entry point in :data:`TARGETS`; returns how many."""
    installed = 0
    # Import everything first, so re-binding a function also reaches the
    # modules that import it by name.
    modules = {m: importlib.import_module(m) for m, _, _ in TARGETS}
    for module_name, path, name in TARGETS:
        module = modules[module_name]
        if "." in path:
            cls_name, method = path.split(".", 1)
            cls = getattr(module, cls_name)
            fn = cls.__dict__.get(method)
            if not callable(fn) or hasattr(fn, "__perfbench_original__"):
                continue
            setattr(cls, method, tracer.wrap(fn, name, _ON_CALL.get(name)))
        else:
            fn = getattr(module, path)
            if hasattr(fn, "__perfbench_original__"):
                continue
            wrapped = tracer.wrap(fn, name, _ON_CALL.get(name))
            _rebind_everywhere(fn, wrapped)
        installed += 1
    scores = importlib.import_module("repro.voting.scores")
    for cls in list(vars(scores).values()):
        if not isinstance(cls, type) or cls.__module__ != scores.__name__:
            continue
        for method in SCORE_METHODS:
            fn = cls.__dict__.get(method)
            if callable(fn) and not hasattr(fn, "__perfbench_original__"):
                setattr(cls, method, tracer.wrap(fn, f"voting.{method}"))
                installed += 1
    return installed


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: list[list[Any]]) -> dict[int, float]:
    """Self time per span id: duration minus the direct children's."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        parent = s[4]
        if parent is not None and parent in own:
            own[parent] -= s[3] - s[2]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_summary(
    spans: list[list[Any]], wall_s: float
) -> dict[str, dict[str, float]]:
    """Per layer: self seconds, share of ``wall_s`` and span count, plus
    an ``unattributed`` row for the wall time no layer accounts for."""
    own = self_times(spans)
    rows: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "count": 0}
    )
    for s in spans:
        row = rows[layer_of(s[1])]
        row["self_s"] += own[s[0]]
        row["count"] += 1
    total = sum(row["self_s"] for row in rows.values())
    out = {layer: dict(row) for layer, row in sorted(rows.items())}
    out["unattributed"] = {"self_s": wall_s - total, "count": 0}
    for row in out.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return out


def top_level(spans: list[list[Any]], names: set[str]) -> list[list[Any]]:
    """Spans named in ``names`` whose parent is not itself one of them
    (so nested calls, e.g. a subclass method calling ``super()``, are not
    counted twice)."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        parent = by_id.get(s[4])
        if parent is not None and parent[1] in names:
            continue
        out.append(s)
    return out
