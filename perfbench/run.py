"""The repository benchmark: three workloads, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload select-exact --seed 1 --seconds 25 --trace 0

Workloads (why each was chosen is in ``perfbench/NOTES.md``):

``select-exact``  k-seed greedy selection with the exact ``dm-batched``
                  engine in fresh processes, then a seeded query stream
                  answered in process.
``select-walk``   the same selection with the ``rw-store`` estimator over
                  a persistent walk store: one cold open (generate,
                  persist, crc), then warm re-opens (load, crc check).
``serve-mixed``   ``repro serve --engine dm-mp:2`` driven open loop at
                  three fixed rates with a mixed read/write request mix.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the run measures once
untraced and once with spans recorded around every layer's entry points,
prints the per-layer summary, and the last line carries the per-layer
metrics.  Every run checks its outputs; ``correct`` is false if any
check failed.  Full details of each run are written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("select-exact", "select-walk", "serve-mixed")

#: End-to-end metrics, printed for every workload (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("select_s", "s"),
    ("score", "votes"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_qps", "1/s"),
)

#: Per-layer metrics, printed for every workload (``--trace 1``); a layer
#: the workload never enters reads 0.
PER_LAYER = (
    ("datasets.build_s", "s"),
    ("problem.build_s", "s"),
    ("engine.build_s", "s"),
    ("engine_mp.pool_start_s", "s"),
    ("engine.gains_s", "s"),
    ("engine.evolve_s", "s"),
    ("engine.flops", "flop"),
    ("engine.gflops", "GFLOP/s"),
    ("voting.score_s", "s"),
    ("engine.commit_s", "s"),
    ("greedy.self_s", "s"),
    ("greedy.evaluations", "count"),
    ("engine.dense_column_steps", "count"),
    ("engine.sparse_nnz", "count"),
    ("engine.repin_inserted", "count"),
    ("random_walk.gen_s", "s"),
    ("random_walk.walks_per_s", "1/s"),
    ("walk_store.load_s", "s"),
    ("walk_store.warm_setup_s", "s"),
    ("walk_store.blocks_generated", "count"),
    ("walk_store.blocks_loaded", "count"),
    ("walk_store.walk_steps_generated", "count"),
    ("walk_store.reuse_ratio", "ratio"),
    ("engine.achieved_epsilon", "ratio"),
    ("engine_mp.round_ms", "ms"),
    ("engine_mp.ipc_bytes_per_round", "B"),
    ("engine_mp.busy_frac", "ratio"),
    ("engine_mp.imbalance", "ratio"),
    ("engine_mp.workers_lost", "count"),
    ("serve.queue_wait_ms.p50.low", "ms"),
    ("serve.queue_wait_ms.p50.mid", "ms"),
    ("serve.queue_wait_ms.p50.high", "ms"),
    ("serve.queue_wait_ms.p99.low", "ms"),
    ("serve.queue_wait_ms.p99.mid", "ms"),
    ("serve.queue_wait_ms.p99.high", "ms"),
    ("serve.exec_ms.p50", "ms"),
    ("serve.exec_ms.p99", "ms"),
    ("serve.delta_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.rounds_per_request", "ratio"),
    ("loadgen.p50_ms.low", "ms"),
    ("loadgen.p50_ms.mid", "ms"),
    ("loadgen.p50_ms.high", "ms"),
    ("loadgen.p99_ms.low", "ms"),
    ("loadgen.p99_ms.mid", "ms"),
    ("loadgen.p99_ms.high", "ms"),
    ("loadgen.sustained_qps", "1/s"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_s", "s"),
)

#: Wall-clock budget of one run; a run must end within 180 s.
RUN_BUDGET_S = 150.0


class BenchError(RuntimeError):
    """The program failed in a way that leaves no result to report."""


def preflight() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)


# ----------------------------------------------------------------------
# Process control
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - reused pgid
        return True
    return True


class Children:
    """Every process this run starts, each in its own process group.

    :meth:`reap` checks that nothing of a finished child's group is
    left; :meth:`stop_all` kills whatever is, so the benchmark never
    leaves a server or worker behind.
    """

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, cmd: list[str], **kwargs) -> subprocess.Popen:
        import common

        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=common.child_env(), start_new_session=True, **kwargs
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def reap(proc: subprocess.Popen, timeout: float = 5.0) -> bool:
        """True if no process of ``proc``'s group outlived it."""
        deadline = time.monotonic() + timeout
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                return False
            time.sleep(0.02)
        return True

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            elif _group_alive(proc.pid):
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class Run:
    """Settings and bookkeeping shared by one pass of one workload."""

    def __init__(self, args: argparse.Namespace, traced: bool, children: Children) -> None:
        import common

        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.sizes = common.TINY if args.tiny else common.FULL
        self.tiny = bool(args.tiny)
        self.traced = traced
        #: ``--trace 1`` runs report per-layer metrics only: there (both
        #: passes) serve-mixed drives the open-loop windows, and starts only
        #: the servers that answer a selection, so the two passes end
        #: within the run's time limit.
        self.per_layer = bool(args.trace)
        self.children = children
        self.t_start = time.monotonic()
        self.tag = f"{os.getpid()}-{'t' if traced else 'u'}"
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        self.expected = expected["tiny" if args.tiny else "full"]
        self.walk_floor = float(expected["walk_score_floor"])

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def trace_path(self, label: str) -> str | None:
        import common

        if not self.traced:
            return None
        return str(common.WORK / f"trace-{self.tag}-{label}.json")


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
def run_offline_child(run: Run, engine: str, label: str, extra: list[str]) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "offline.py"),
        "--engine", engine,
        "--seed", str(run.seed),
        *extra,
    ]
    if run.tiny:
        cmd.append("--tiny")
    trace = run.trace_path(label)
    if trace:
        cmd += ["--trace-out", trace]
    t_spawn = time.monotonic()
    proc = run.children.spawn(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"offline child {label} timed out") from None
    t_exit = time.monotonic()
    run.check(f"{label}: no process survives", run.children.reap(proc))
    if proc.returncode != 0:
        raise BenchError(f"offline child {label} failed:\n{err[-3000:]}")
    data = json.loads(out.strip().splitlines()[-1])
    data.update(t_spawn=t_spawn, t_exit=t_exit, label=label, trace=trace)
    if trace:
        data["trace_data"] = json.loads(Path(trace).read_text())
        os.unlink(trace)
    return data


def offline_workload(run: Run, engine: str) -> tuple[dict, dict]:
    """Fresh-process selections, each followed by the query stream;
    returns ``(end-to-end metrics, details)``."""
    import common

    sizes = run.sizes
    runs: list[dict] = []
    store_dir = None

    def room() -> bool:
        last = runs[-1]["t_exit"] - runs[-1]["t_spawn"]
        return run.elapsed() + last < RUN_BUDGET_S / (2 if run.traced else 1)

    # Every process answers the stream and the query metrics pool every
    # process's latencies: on a shared host one process's stream moved by
    # up to 30% from run to run, through stretches of a second or so in
    # which every query ran slower.
    try:
        if engine == "rw-store":
            store_dir = common.WORK / f"store-{run.tag}"
            shutil.rmtree(store_dir, ignore_errors=True)
            child_args = [
                "--store-dir", str(store_dir), "--queries", str(sizes.walk_queries)
            ]
            runs.append(run_offline_child(run, engine, "cold", child_args))
            while len(runs) - 1 < sizes.walk_min_warm or (
                run.elapsed() < run.seconds and room()
            ):
                runs.append(run_offline_child(run, engine, f"warm{len(runs)}", child_args))
        else:
            child_args = ["--queries", str(sizes.exact_queries)]
            runs.append(run_offline_child(run, engine, "p0", child_args))
            while len(runs) < sizes.exact_min_processes or (
                run.elapsed() < run.seconds and room()
            ):
                runs.append(run_offline_child(run, engine, f"p{len(runs)}", child_args))
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    expected = run.expected
    first = runs[0]
    for r in runs:
        run.attempted += 1
        if engine == "dm-batched":
            run.check(
                f"{r['label']}: exact seeds and score match the record",
                r["seeds"] == expected["seeds"] and r["score"] == expected["score"],
                f"seeds={r['seeds']} score={r['score']}",
            )
        else:
            run.check(
                f"{r['label']}: selection repeats the cold open's",
                r["seeds"] == first["seeds"] and r["score"] == first["score"],
                f"seeds={r['seeds']} score={r['score']}",
            )
    if engine == "rw-store":
        floor = run.walk_floor * expected["score"]
        run.check(
            "walk score above floor",
            first["score"] >= floor,
            f"score={first['score']} floor={floor:.2f} (exact {expected['score']})",
        )
        run.check(
            "cold open generates, warm opens only load",
            first["store_setup"]["blocks_generated"] > 0
            and all(r["store_setup"]["blocks_generated"] == 0 for r in runs[1:]),
        )
    for r in runs:
        run.attempted += r["queries_attempted"]
        run.failed += len(r["errors"])
        label = r["label"]
        run.check(f"{label}: queries answered", not r["errors"], "; ".join(r["errors"][:3]))
        if r["probes_ok"] is not None:
            run.check(f"{label}: post-stream probes equal a fresh engine's", r["probes_ok"])

    setups = [r["t_ready"] - r["t_spawn"] for r in runs]
    selects = [r["t_selected"] - r["t_ready"] for r in runs]
    latencies = [x for r in runs for x in r["latencies"]]
    stream_s = sum(r["t_stream_end"] - r["t_queries"] for r in runs)
    metrics = {
        "setup_s": setups[0] if engine == "rw-store" else common.median(setups),
        "select_s": common.median(selects),
        "score": first["score"],
        "query_p50_ms": 1e3 * common.percentile(latencies, 50),
        "query_p90_ms": 1e3 * common.percentile(latencies, 90),
        "query_qps": len(latencies) / stream_s if stream_s > 0 else 0.0,
    }
    details = {
        "processes": len(runs),
        "setup_s": setups,
        "select_s": selects,
        "queries": len(latencies),
        "wall_s": sum(r["t_exit"] - r["t_spawn"] for r in runs),
        "runs": runs,
    }
    return metrics, details


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --engine dm-mp:2`` process (traced through
    ``serve_host.py`` when the pass is traced)."""

    def __init__(self, run: Run, label: str) -> None:
        import common

        inst = run.sizes.instance
        serve_args = ["serve", *inst.cli_args(), "--engine", "dm-mp:2", "--port", "0"]
        self.trace = run.trace_path(label)
        if self.trace:
            cmd = [
                sys.executable, str(BENCH_DIR / "serve_host.py"),
                "--trace-out", self.trace, "--", *serve_args,
            ]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        common.WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = common.WORK / f"server-{run.tag}-{label}.log"
        self.log = open(self.log_path, "w+")
        self.port: int | None = None
        self.t_ready: float | None = None
        self._ready = threading.Event()
        self.t_spawn = time.monotonic()
        self.proc = run.children.spawn(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("serving on") and self.port is None:
                self.t_ready = time.monotonic()
                self.port = int(line.strip().rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 120.0) -> float:
        self._ready.wait(timeout)
        if self.port is None or self.t_ready is None:
            self.log.seek(0)
            raise BenchError(f"server never became ready:\n{self.log.read()[-3000:]}")
        return self.t_ready - self.t_spawn

    def stop(self, run: Run, label: str) -> dict | None:
        """SIGTERM (graceful drain), wait, check the group is gone; returns
        the trace written by a traced server."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._reader.join(timeout=5)
        run.check(f"{label}: server exits 0 on SIGTERM", self.proc.returncode == 0,
                  f"returncode={self.proc.returncode}")
        run.check(f"{label}: no server or worker process survives", run.children.reap(self.proc))
        self.log.close()
        if self.proc.returncode == 0:
            self.log_path.unlink()  # kept only when the server failed
        if self.trace and os.path.exists(self.trace):
            data = json.loads(Path(self.trace).read_text())
            os.unlink(self.trace)
            return data
        return None


async def _drive_server(
    run: Run, port: int, index: int, select: bool, full: bool
) -> dict:
    """One server: a top-k selection (with ``select``), a warm-up, the
    latency phase, the throughput loop; with ``full`` also the open-loop
    windows (when the run reports them) and the probes."""
    import common
    import loadgen

    sizes = run.sizes
    out: dict = {}
    conns = await loadgen.Connections.open("127.0.0.1", port, 2)
    try:
        out["top"] = None
        if select:
            out["top"] = await conns.request(
                1, {"op": "top_k_seeds", "k": sizes.instance.k}, 120
            )
        out["t_top_end"] = time.monotonic()
        stats = await conns.request(2, {"op": "stats"}, 30)
        problem = stats.response["result"]["problem"]
        n, r = int(problem["n"]), int(problem["r"])
        gen = common.QueryGenerator(run.seed, n, r, stream=index)
        next_id = 100
        for phase, payloads, outstanding in (
            ("warmup", gen.warmup(), common.LATENCY_OUTSTANDING),
            ("latency", gen.take(sizes.latency_requests), common.LATENCY_OUTSTANDING),
            ("closed", gen.take(sizes.closed_requests), sizes.closed_outstanding),
        ):
            count = len(payloads)
            outcomes, elapsed = await loadgen.closed_loop(
                conns, next_id, payloads, outstanding, 60
            )
            out[phase] = {"payloads": payloads, "outcomes": outcomes, "elapsed_s": elapsed}
            next_id += count
        if not full:
            return out
        out["stats0"] = (await conns.request(next_id, {"op": "stats"}, 30)).response
        next_id += 1
        duration = sizes.window_share * run.seconds
        out["windows"] = []
        for stream, (name, rate) in enumerate(sizes.rates if run.per_layer else ()):
            offsets = common.poisson_schedule(run.seed, rate, duration, stream)
            payloads = gen.take(len(offsets))
            outcomes = await loadgen.open_loop(conns, next_id, offsets, payloads, 60)
            out["windows"].append(
                {"name": name, "rate": rate, "duration": duration,
                 "payloads": payloads, "outcomes": outcomes, "first_id": next_id}
            )
            next_id += len(offsets)
        out["stats1"] = (await conns.request(next_id, {"op": "stats"}, 30)).response
        next_id += 1
        out["probes"] = common.probe_set(run.seed, n, r)
        out["probe_outcomes"] = []
        for probe in out["probes"]:
            out["probe_outcomes"].append(await conns.request(next_id, probe, 60))
            next_id += 1
    finally:
        await conns.close()
    return out


def _reference_lines(run: Run, deltas: list[dict], probes: list[dict], ids: list) -> list[bytes]:
    """Probe responses of an in-process dm-batched hub that absorbed the
    same writes, encoded exactly as the server encodes them."""
    import common

    if str(common.SRC) not in sys.path:
        sys.path.insert(0, str(common.SRC))
    from repro.datasets.yelp import yelp_like
    from repro.serve.batcher import CoalescingBatcher, EngineHub
    from repro.serve.protocol import Request, encode
    from repro.voting.scores import make_score

    inst = run.sizes.instance
    dataset = yelp_like(n=inst.users, rng=inst.dataset_seed, horizon=inst.horizon)
    hub = EngineHub(dataset.problem(make_score(inst.score)), ["dm-batched"])
    try:
        batcher = CoalescingBatcher(hub)
        for i, delta in enumerate(deltas):
            params = {k: v for k, v in delta.items() if k != "op"}
            batcher.execute([Request(id=i, op="apply_delta", params=params)])
        lines = []
        for request_id, probe in zip(ids, probes):
            params = {k: v for k, v in probe.items() if k != "op"}
            response = batcher.execute([Request(id=request_id, op=probe["op"], params=params)])
            lines.append(encode(response[0]))
        return lines
    finally:
        hub.close()


def _window_stats(window: dict, limit_ms: float) -> dict:
    import common

    outcomes = window["outcomes"]
    lat = [o.latency_s for o in outcomes]
    ok = [bool(o.response and o.response.get("ok")) for o in outcomes]
    quarter = max(1, len(lat) // 4)
    head = common.median(lat[:quarter])
    tail = common.median(lat[-quarter:])
    growing = tail > 2 * head + 0.005
    span = max(o.received for o in outcomes) - outcomes[0].due if outcomes else 0.0
    p90 = 1e3 * common.percentile(lat, 90)
    return {
        "rate": window["rate"],
        "requests": len(outcomes),
        "failed": ok.count(False),
        "p50_ms": 1e3 * common.percentile(lat, 50),
        "p90_ms": p90,
        "p99_ms": 1e3 * common.percentile(lat, 99),
        "late_ms_p99": 1e3 * common.percentile([o.late_s for o in outcomes], 99),
        "achieved_qps": len(outcomes) / span if span > 0 else 0.0,
        "growing_backlog": growing,
        "meets_limit": all(ok) and p90 <= limit_ms and not growing,
    }


def _ok(outcome) -> bool:
    return bool(outcome.response and outcome.response.get("ok"))


def serve_workload(run: Run) -> tuple[dict, dict]:
    """Start the server ``server_starts`` times (``--trace 1``:
    ``select_servers`` times); each answers the latency phase and the
    throughput loop, the last ``select_servers`` also a top-k selection,
    and the last one also the probes and, with ``--trace 1``, the open-loop
    windows.  Query metrics are medians over the servers."""
    import common

    sizes = run.sizes
    expected = run.expected
    setups, selects, per_server = [], [], []
    t_first = time.monotonic()
    starts = sizes.select_servers if run.per_layer else sizes.server_starts
    for index in range(starts):
        label = f"server{index}"
        select = index >= starts - sizes.select_servers
        full = index == starts - 1
        server = Server(run, label)
        try:
            setups.append(server.wait_ready())
            driven = asyncio.run(_drive_server(run, server.port, index, select, full))
        finally:
            trace = server.stop(run, label)
        top = driven["top"]
        if top is not None:
            result = top.response.get("result", {}) if top.response else {}
            run.attempted += 1
            run.check(
                f"{label}: top_k_seeds over dm-mp:2 equals the recorded exact selection",
                _ok(top)
                and result.get("seeds") == expected["seeds"]
                and result.get("objective") == expected["score"],
                f"seeds={result.get('seeds')} objective={result.get('objective')}",
            )
            selects.append(top.received - top.sent)
            score = float(result.get("objective", 0.0))
        latency = [o.received - o.sent for o in driven["latency"]["outcomes"]]
        closed = driven["closed"]
        per_server.append({
            "latency_p50_ms": 1e3 * common.percentile(latency, 50),
            "latency_p90_ms": 1e3 * common.percentile(latency, 90),
            "closed_qps": len(closed["outcomes"]) / closed["elapsed_s"],
        })
        phases = [driven["warmup"], driven["latency"], closed]
        if full:
            phases += driven["windows"]
        failed = 0
        for phase in phases:
            run.attempted += len(phase["payloads"])
            failed += len(phase["payloads"]) - sum(map(_ok, phase["outcomes"]))
        run.failed += failed
        run.check(f"{label}: every response is ok", failed == 0, f"{failed} failed")
    windows = {w["name"]: _window_stats(w, sizes.limit_ms) for w in driven["windows"]}
    deltas = [p for phase in phases for p in phase["payloads"] if p["op"] == "apply_delta"]
    probe_outcomes = driven["probe_outcomes"]
    run.attempted += len(probe_outcomes)
    ids = [o.response["id"] for o in probe_outcomes]
    want = _reference_lines(run, deltas, driven["probes"], ids)
    mismatched = sum(o.raw != line for o, line in zip(probe_outcomes, want))
    run.check(
        "probes answer byte-identically to an in-process dm-batched reference",
        mismatched == 0,
        f"{mismatched} of {len(want)} probe responses differ",
    )

    def across(key: str) -> float:
        return common.median([s[key] for s in per_server])

    metrics = {
        "setup_s": common.median(setups),
        "select_s": common.median(selects),
        "score": score,
        "query_p50_ms": across("latency_p50_ms"),
        "query_p90_ms": across("latency_p90_ms"),
        "query_qps": across("closed_qps"),
    }
    details = {
        "setup_s": setups,
        "select_s": selects,
        "per_server": per_server,
        "windows": windows,
        "sustained_qps": max(
            (w["rate"] for w in windows.values() if w["meets_limit"]), default=0.0
        ),
        "limit_ms": sizes.limit_ms,
        "server": {"t_spawn": server.t_spawn, "t_ready": server.t_ready},
        "driven": driven,
        "trace": trace,
        "wall_s": time.monotonic() - t_first,
    }
    return metrics, details


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, traced: bool, children: Children) -> tuple[Run, dict, dict]:
    run = Run(args, traced, children)
    if args.workload == "select-exact":
        metrics, details = offline_workload(run, "dm-batched")
    elif args.workload == "select-walk":
        metrics, details = offline_workload(run, "rw-store")
    else:
        metrics, details = serve_workload(run)
    return run, metrics, details


def _jsonable(obj):
    import loadgen

    if isinstance(obj, loadgen.Outcome):
        return {"due": obj.due, "sent": obj.sent, "received": obj.received,
                "ok": bool(obj.response and obj.response.get("ok"))}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items() if k != "trace_data"}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny instance and short phases (the self-check's size)",
    )
    args = parser.parse_args(argv)
    preflight()

    import common
    import layers

    cpu = common.pin_to_one_cpu()
    common.WORK.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(common.SRC)],
        check=True, stdout=subprocess.DEVNULL,
    )
    machine = layers.machine_info(run_sizes=common.TINY if args.tiny else common.FULL)
    machine["pinned_cpu"] = cpu
    print("machine: " + json.dumps(machine))
    children = Children()
    try:
        run, metrics, details = measure(args, False, children)
        checks = list(run.checks)
        attempted, failed = run.attempted, run.failed
        if args.trace:
            traced_run, traced_metrics, traced_details = measure(args, True, children)
            checks += traced_run.checks
            attempted += traced_run.attempted
            failed += traced_run.failed
            per_layer, summary = layers.per_layer(
                args.workload, traced_details, traced_metrics, details, metrics, machine
            )
            print(layers.format_summary(args.workload, summary))
            values = per_layer
            names = PER_LAYER
        else:
            values = metrics
            names = END_TO_END
            summary = None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        children.stop_all()

    for name, value in metrics.items():
        print(f"e2e {name} = {value:.6g}")
    for check in checks:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {check['name']}" + (f" ({check['detail']})" if check["detail"] else ""))
    out_dir = common.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": metrics,
        "details": _jsonable(details), "checks": checks, "summary": summary,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    final = {
        "correct": all(c["ok"] for c in checks),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
