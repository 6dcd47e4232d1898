"""Per-layer metrics and summaries of a traced run; the machine record.

Which end-to-end metric each per-layer metric should move, on which
workload, is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from collections import defaultdict

import common
import tracing

GAINS = {"engine.marginal_gains", "engine.coalesced_gains"}


# ----------------------------------------------------------------------
# Machine record
# ----------------------------------------------------------------------
def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # noqa: BLE001 - informational only
        return f"unknown ({type(exc).__name__})"


def machine_info(run_sizes: common.Sizes) -> dict:
    """nproc, versions, BLAS, load average, and a calibration SpMM of the
    instance's shape timed in this process (informational only)."""
    import numpy as np
    import scipy
    from scipy import sparse

    if str(common.SRC) not in sys.path:
        sys.path.insert(0, str(common.SRC))
    from repro.datasets.yelp import yelp_like

    inst = run_sizes.instance
    dataset = yelp_like(n=inst.users, rng=inst.dataset_seed, horizon=inst.horizon)
    target = dataset.target
    d = dataset.state.stubbornness[target]
    operator = (sparse.diags(1.0 - d) @ dataset.state.graph(target).csc.T).tocsr()
    block = np.random.default_rng(0).random((inst.users, 64))
    times = []
    for _ in range(20):
        start = time.perf_counter()
        operator @ block
        times.append(time.perf_counter() - start)
    spmm_s = common.median(times)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "loadavg": list(os.getloadavg()),
        "instance": {
            "n": inst.users,
            "horizon": inst.horizon,
            "k": inst.k,
            "nnz": int(operator.nnz),
        },
        "calibration_spmm": {
            "shape": [inst.users, inst.users, 64],
            "median_s": spmm_s,
            "gflops": 2.0 * operator.nnz * 64 / spmm_s / 1e9,
        },
    }


# ----------------------------------------------------------------------
# Span helpers
# ----------------------------------------------------------------------
def _self_by_layer(spans: list, own: dict, keep) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if keep(s):
            out[tracing.layer_of(s[1])] += own[s[0]]
    return out


def _durations(spans: list, names: set[str], keep) -> float:
    return sum(s[3] - s[2] for s in tracing.top_level(spans, names) if keep(s))


def _self_of(spans: list, own: dict, names: set[str], keep) -> float:
    return sum(own[s[0]] for s in spans if s[1] in names and keep(s))


def _flops(stats: dict, machine: dict) -> float:
    """Computed, not measured: one dense column-step is one product with
    the ``nnz``-entry operator (2 flops per entry); the sparse phase counts
    ``sparse_nnz / n`` column-step equivalents (``EngineStats.evolution_work``)."""
    inst = machine["instance"]
    steps = stats["dense_column_steps"] + stats["sparse_nnz"] / max(inst["n"], 1)
    return 2.0 * inst["nnz"] * steps


def _summary(phases: dict) -> dict:
    """``phases``: name -> (spans, wall seconds, extra rows)."""
    out = {}
    for phase, (spans, wall, extra) in phases.items():
        rows = tracing.layer_summary(spans, wall)
        for name, seconds in extra.items():
            rows[name] = {"self_s": seconds, "count": 0, "share": seconds / wall if wall else 0.0}
            rows["unattributed"]["self_s"] -= seconds
            rows["unattributed"]["share"] = rows["unattributed"]["self_s"] / wall if wall else 0.0
        out[phase] = {"wall_s": wall, "layers": rows}
    return out


def format_summary(workload: str, summary: dict) -> str:
    lines = [f"per-layer summary ({workload}): self time, share of phase wall time, spans"]
    for phase, block in summary["phases"].items():
        lines.append(f"  [{phase}] wall {block['wall_s']:.3f} s")
        rows = sorted(block["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for layer, row in rows:
            lines.append(
                f"    {layer:<14} {row['self_s']:10.4f} s {100 * row['share']:6.1f}% "
                f"{int(row['count']):8d}"
            )
    for name, value in summary["overhead"].items():
        lines.append(f"  tracing overhead {name}: {value:+.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def _offline(workload: str, details: dict, machine: dict) -> tuple[dict, dict]:
    runs = details["runs"]
    walk = workload == "select-walk"
    per_run = []
    for index, r in enumerate(runs):
        # Span ids restart in every process: make them unique across runs.
        base = index << 32
        spans = [
            [s[0] + base, s[1], s[2], s[3], None if s[4] is None else s[4] + base, s[5]]
            for s in r["trace_data"]["spans"]
        ]
        own = tracing.self_times(spans)
        per_run.append((spans, own))

    def in_request(name):
        return lambda s: s[5] == name

    setup_runs = [per_run[0]] if walk else per_run
    setup_layers = [_self_by_layer(sp, own, in_request("setup")) for sp, own in setup_runs]
    select = in_request("select")
    values: dict[str, float] = {
        "datasets.build_s": common.median([x["datasets"] for x in setup_layers]),
        "problem.build_s": common.median([x["problem"] for x in setup_layers]),
        "engine.build_s": common.median([x["engine"] for x in setup_layers]),
        "engine.gains_s": common.median([_durations(sp, GAINS, select) for sp, _ in per_run]),
        "engine.evolve_s": common.median([_self_of(sp, own, GAINS, select) for sp, own in per_run]),
        "voting.score_s": common.median(
            [_self_by_layer(sp, own, select)["voting"] for sp, own in per_run]
        ),
        "engine.commit_s": common.median(
            [_durations(sp, {"engine.commit"}, select) for sp, _ in per_run]
        ),
        "greedy.self_s": common.median(
            [_self_by_layer(sp, own, select)["greedy"] for sp, own in per_run]
        ),
    }
    first = runs[0]
    stats = first["engine_stats"]
    values["greedy.evaluations"] = sum(
        e[1] for e in first["trace_data"]["events"] if e[0] == "greedy.evaluations"
    )
    values["engine.dense_column_steps"] = stats["dense_column_steps"]
    values["engine.sparse_nnz"] = stats["sparse_nnz"]
    values["engine.repin_inserted"] = stats["repin_inserted"]
    flops = _flops(stats, machine)
    values["engine.flops"] = flops
    values["engine.gflops"] = (
        flops / values["engine.evolve_s"] / 1e9 if values["engine.evolve_s"] > 0 else 0.0
    )
    values["engine.achieved_epsilon"] = stats["achieved_epsilon"]
    if walk:
        cold_spans = per_run[0][0]
        gen_s = _durations(cold_spans, {"random_walk.generate"}, in_request("setup"))
        cold_store = first["store_setup"]
        warm = per_run[1:]
        values["random_walk.gen_s"] = gen_s
        values["random_walk.walks_per_s"] = (
            cold_store["walks_generated"] / gen_s if gen_s > 0 else 0.0
        )
        values["walk_store.load_s"] = common.median(
            [_durations(sp, {"walk_store.block"}, in_request("setup")) for sp, _ in warm]
        )
        values["walk_store.warm_setup_s"] = common.median(
            [r["t_ready"] - r["t_spawn"] for r in runs[1:]]
        )
        values["walk_store.blocks_generated"] = cold_store["blocks_generated"]
        values["walk_store.blocks_loaded"] = common.median(
            [r["store_setup"]["blocks_loaded"] for r in runs[1:]]
        )
        values["walk_store.walk_steps_generated"] = cold_store["walk_steps_generated"]
        reused = sum(r["store_end"]["blocks_reused"] for r in runs)
        generated = sum(r["store_end"]["blocks_generated"] for r in runs)
        values["walk_store.reuse_ratio"] = reused / max(reused + generated, 1)

    def starts_q(s):
        return isinstance(s[5], str) and s[5].startswith("q")

    imports = sum(r["t_import"] - r["t_main"] for r in runs)
    all_spans = [s for sp, _ in per_run for s in sp]
    phases = {
        "setup": (
            [s for s in all_spans if s[5] == "setup"],
            sum(r["t_ready"] - r["t_spawn"] for r in runs),
            {"import": imports},
        ),
        "select": (
            [s for s in all_spans if s[5] == "select"],
            sum(r["t_selected"] - r["t_ready"] for r in runs),
            {},
        ),
        "queries": (
            [s for s in per_run[0][0] if starts_q(s)],
            first["t_stream_end"] - first["t_queries"],
            {},
        ),
        "whole": (all_spans, details["wall_s"], {"import": imports}),
    }
    return values, _summary(phases)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _serve(details: dict, machine: dict) -> tuple[dict, dict]:
    trace = details["trace"]
    spans = trace["spans"]
    own = tracing.self_times(spans)
    t_ready = details["server"]["t_ready"]
    t_spawn = details["server"]["t_spawn"]
    windows = details["driven"]["windows"]
    load_start = windows[0]["outcomes"][0].due
    load_end = max(o.received for w in windows for o in w["outcomes"])

    def during(lo, hi):
        return lambda s: s[2] >= lo and s[3] <= hi

    t_top_end = details["driven"]["t_top_end"]
    setup = during(float("-inf"), t_ready)
    select = during(t_ready, t_top_end)
    load = during(load_start, load_end)
    setup_layers = _self_by_layer(spans, own, setup)
    values: dict[str, float] = {
        "datasets.build_s": setup_layers["datasets"],
        "problem.build_s": setup_layers["problem"],
        "engine.build_s": setup_layers["engine"],
        "engine.gains_s": _durations(spans, GAINS, load),
        "engine.evolve_s": _self_of(spans, own, GAINS, load),
        "voting.score_s": _self_by_layer(spans, own, load)["voting"],
        "engine.commit_s": _durations(spans, {"engine.commit"}, select),
        "greedy.self_s": _self_by_layer(spans, own, select)["greedy"],
    }
    pings = sorted((s for s in spans if s[1] == "engine_mp.ping"), key=lambda s: s[2])
    values["engine_mp.pool_start_s"] = pings[0][3] - pings[0][2] if pings else 0.0
    values["greedy.evaluations"] = sum(
        e[1] for e in trace["events"] if e[0] == "greedy.evaluations"
    )
    engines = trace.get("engines") or {}
    engine = next(iter(engines.values()), None)
    if engine is not None:
        stats = engine["stats"]
        values["engine.dense_column_steps"] = stats["dense_column_steps"]
        values["engine.sparse_nnz"] = stats["sparse_nnz"]
        values["engine.repin_inserted"] = stats["repin_inserted"]
        flops = _flops(stats, machine)
        values["engine.flops"] = flops
        # Worker-side evolution is untraced; the pool's busy time stands in.
        evolve = values["engine.evolve_s"] + engine["pool_busy_s"]
        values["engine.gflops"] = flops / evolve / 1e9 if evolve > 0 else 0.0
        rounds = engine["pool_rounds"]
        values["engine_mp.ipc_bytes_per_round"] = stats["ipc_bytes"] / rounds if rounds else 0.0
        steps = engine.get("worker_dense_column_steps") or []
        mean = sum(steps) / len(steps) if steps else 0.0
        values["engine_mp.imbalance"] = max(steps) / mean if mean > 0 else 0.0
    stats0, stats1 = details["driven"]["stats0"]["result"], details["driven"]["stats1"]["result"]
    pool0 = next(iter(stats0["engines"].values()))["pool"]
    pool1 = next(iter(stats1["engines"].values()))["pool"]
    rounds = pool1["rounds"] - pool0["rounds"]
    busy = pool1["busy_s"] - pool0["busy_s"]
    values["engine_mp.round_ms"] = 1e3 * busy / rounds if rounds else 0.0
    values["engine_mp.busy_frac"] = busy / (load_end - load_start)
    values["engine_mp.workers_lost"] = pool1.get("workers_lost", 0)
    serve0, serve1 = stats0["serve"], stats1["serve"]
    requests = serve1["requests_total"] - serve0["requests_total"]
    values["serve.rounds_per_request"] = (
        (serve1["engine_rounds"] - serve0["engine_rounds"]) / requests if requests else 0.0
    )
    # Queue wait: from the send of a request to the start of the batch
    # that answered it (socket and parse time included, tens of µs).
    batch_start = {}
    batch_sizes = []
    for event in trace["events"]:
        if event[0] != "serve.batch":
            continue
        if load_start <= event[1] <= load_end:
            batch_sizes.append(len(event[3]))
        for request_id in event[3]:
            batch_start[request_id] = event[1]
    for w in windows:
        waits = [
            batch_start[w["first_id"] + i] - o.sent
            for i, o in enumerate(w["outcomes"])
            if w["first_id"] + i in batch_start
        ]
        values[f"serve.queue_wait_ms.p50.{w['name']}"] = 1e3 * common.percentile(waits, 50)
        values[f"serve.queue_wait_ms.p99.{w['name']}"] = 1e3 * common.percentile(waits, 99)
    execs = [s[3] - s[2] for s in spans if s[1] == "serve.execute" and load(s)]
    values["serve.exec_ms.p50"] = 1e3 * common.percentile(execs, 50)
    values["serve.exec_ms.p99"] = 1e3 * common.percentile(execs, 99)
    values["serve.batch_size"] = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    deltas = [s[3] - s[2] for s in spans if s[1] == "serve.apply_delta" and load(s)]
    values["serve.delta_ms"] = 1e3 * sum(deltas) / len(deltas) if deltas else 0.0
    opened = {s[4] for s in spans if s[1] == "engine.open_session"}
    sessions = [s for s in spans if s[1] == "serve.session" and load(s)]
    hits = sum(1 for s in sessions if s[0] not in opened)
    values["serve.session_hit_ratio"] = hits / len(sessions) if sessions else 0.0
    stats_by_rate = details["windows"]
    for name, w in stats_by_rate.items():
        values[f"loadgen.p50_ms.{name}"] = w["p50_ms"]
        values[f"loadgen.p99_ms.{name}"] = w["p99_ms"]
    values["loadgen.sustained_qps"] = details["sustained_qps"]
    values["loadgen.late_ms_p99"] = max(w["late_ms_p99"] for w in stats_by_rate.values())
    imports = {"import": trace["t_import"] - trace["t_main"]}
    # The server waits for requests between batches: report that as idle
    # rather than leaving it in the unattributed remainder.
    busy = _durations(spans, {"serve.execute"}, load)
    phases = {
        "setup": ([s for s in spans if setup(s)], t_ready - t_spawn, imports),
        "select": ([s for s in spans if select(s)], t_top_end - t_ready, {}),
        "warmup+latency+closed": (
            [s for s in spans if during(t_top_end, load_start)(s)],
            load_start - t_top_end,
            {},
        ),
        "load": (
            [s for s in spans if load(s)],
            load_end - load_start,
            {"idle": load_end - load_start - busy},
        ),
        "whole": (
            spans,
            trace["t_end"] - t_spawn,
            {
                **imports,
                "idle": trace["t_end"] - t_ready
                - _durations(spans, {"serve.execute"}, lambda s: True),
            },
        ),
    }
    return values, _summary(phases)


def per_layer(
    workload: str,
    traced: dict,
    traced_metrics: dict,
    untraced: dict,
    untraced_metrics: dict,
    machine: dict,
) -> tuple[dict, dict]:
    """Per-layer metric values and the phase summary of a traced run."""
    if workload == "serve-mixed":
        values, summary_phases = _serve(traced, machine)
    else:
        values, summary_phases = _offline(workload, traced, machine)
    whole = summary_phases["whole"]
    values["trace.unattributed_frac"] = whole["layers"]["unattributed"]["share"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    overhead = {"wall_s": values["trace.overhead_s"]}
    for name in ("setup_s", "select_s", "query_p50_ms"):
        overhead[name] = traced_metrics[name] - untraced_metrics[name]
    return values, {"phases": summary_phases, "overhead": overhead}
