"""One fresh-process offline run: set up, select k seeds, answer queries.

Run from the checkout root with ``PYTHONPATH=src`` (``run.py`` does)::

    python3 perfbench/offline.py --engine dm-batched --seed 1 --queries 200

It builds the instance, builds the engine (for ``rw-store`` around a
persistent walk store under ``--store-dir``: generated on a cold open,
loaded and crc-checked on a warm one), then times one k-seed greedy
selection through ``repro.eval.harness.select_seeds`` — the call behind
``repro select`` — and, with ``--queries``, answers that many seeded
queries one at a time through the library's session API, after an
untimed warm-up (:meth:`common.QueryGenerator.warmup`).  The last line
of its standard output is one JSON object with its timestamps
(``time.monotonic``), seeds, score, query latencies and counters.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

T_MAIN = time.monotonic()


def _stats(obj) -> dict:
    from dataclasses import fields

    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _answer(query: dict, engine, problem, store) -> list[float]:
    """One query through the library API; returns the numbers it produced."""
    import numpy as np

    op = query["op"]
    if op == "marginal_gain":
        session = engine.open_session(tuple(query["seeds"]))
        gains = session.coalesced_gains(np.asarray(query["candidates"], dtype=np.int64))
        return [float(g) for g in gains] + [float(session.value)]
    if op == "prefix_win_probability":
        values, wins = engine.query_sets([tuple(query["seeds"])], wins=True)
        return [float(values[0]), float(bool(wins[0]))]
    report = problem.apply_delta(
        opinions_changed=[tuple(row) for row in query["opinions_changed"]]
    )
    engine.apply_delta(report, sessions="rebuild")
    if store is not None:
        store.apply_delta(report)
    return [float(report.opinion_version)]


def _reference_probes(sizes, deltas: list[dict], probes: list[dict]) -> list[list[float]]:
    """Probe answers of a fresh dm-batched engine on a fresh problem that
    absorbed the same writes (exact workloads' post-stream check)."""
    from repro.core.engine import make_engine
    from repro.datasets.yelp import yelp_like
    from repro.voting.scores import make_score

    inst = sizes.instance
    dataset = yelp_like(n=inst.users, rng=inst.dataset_seed, horizon=inst.horizon)
    problem = dataset.problem(make_score(inst.score))
    engine = make_engine("dm-batched", problem)
    for query in deltas:
        _answer(query, engine, problem, None)
    return [_answer(p, engine, problem, None) for p in probes]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("dm-batched", "rw-store"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store-dir", default=None)
    parser.add_argument("--queries", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import common

    sizes = common.TINY if args.tiny else common.FULL
    inst = sizes.instance
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
    from repro.core import engine as engine_mod
    from repro.core import walk_store
    from repro.datasets import yelp
    from repro.eval import harness
    from repro.voting.scores import make_score

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    t_import = time.monotonic()

    if tracer is not None:
        tracer.request = "setup"
    dataset = yelp.yelp_like(n=inst.users, rng=inst.dataset_seed, horizon=inst.horizon)
    problem = dataset.problem(make_score(inst.score))
    problem.others_by_user()
    store = None
    if args.engine == "rw-store":
        store = walk_store.store_for_problem(
            problem, seed=args.seed, store_dir=args.store_dir, shards=1
        )
        engine = engine_mod.make_engine(
            f"rw-store:mmap={args.store_dir}", problem, rng=args.seed, store=store
        )
    else:
        engine = engine_mod.make_engine("dm-batched", problem, rng=args.seed)
    t_ready = time.monotonic()
    setup_store = _stats(store.stats) if store is not None else None

    if tracer is not None:
        tracer.request = "select"
    seeds = harness.select_seeds(
        "dm", problem, inst.k, rng=args.seed, engine=engine, store=store
    )
    t_selected = time.monotonic()
    select_engine = _stats(engine.stats)
    if tracer is not None:
        tracer.request = "score"
    score = float(problem.objective(seeds))

    latencies: list[float] = []
    errors: list[str] = []
    deltas: list[dict] = []
    probes_ok = None
    warmup: list[dict] = []
    timed: list[dict] = []
    if args.queries:
        gen = common.QueryGenerator(args.seed, problem.n, problem.r)
        warmup = gen.warmup()
        timed = gen.take(args.queries)
    t_queries = time.monotonic()
    for i, query in enumerate(warmup + timed):
        if tracer is not None:
            timed_index = i - len(warmup)
            tracer.request = f"q{timed_index}" if timed_index >= 0 else f"w{i}"
        start = time.monotonic()
        if i == len(warmup):
            t_queries = start
        try:
            values = _answer(query, engine, problem, store)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            errors.append(f"{query['op']}: {type(exc).__name__}: {exc}")
            continue
        if i >= len(warmup):
            latencies.append(time.monotonic() - start)
        if not common.finite(values):
            errors.append(f"{query['op']}: non-finite result")
        if query["op"] == "apply_delta":
            deltas.append(query)
    t_stream_end = time.monotonic()
    if args.queries and args.engine == "dm-batched":
        # Warm engine after the stream vs a fresh one: byte-identical.
        if tracer is not None:
            tracer.request = "probes"
        probes = common.probe_set(args.seed, problem.n, problem.r)
        got = [_answer(p, engine, problem, None) for p in probes]
        want = _reference_probes(sizes, deltas, probes)
        probes_ok = repr(got) == repr(want)

    result = {
        "t_main": T_MAIN,
        "t_import": t_import,
        "t_ready": t_ready,
        "t_selected": t_selected,
        "t_queries": t_queries,
        "t_stream_end": t_stream_end,
        "seeds": [int(s) for s in seeds],
        "score": score,
        "queries_attempted": len(warmup) + len(timed),
        "latencies": latencies,
        "errors": errors,
        "probes_ok": probes_ok,
        "engine_stats": select_engine,
        "store_setup": setup_store,
        "store_end": _stats(store.stats) if store is not None else None,
    }
    engine.close()
    if store is not None:
        store.close()
    if tracer is not None:
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
