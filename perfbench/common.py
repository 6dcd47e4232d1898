"""Shared pieces of the benchmark: the instance, seeded inputs, statistics.

The benchmark's files live in ``perfbench/``; the program is the
repository's ``src/repro`` package, run from the checkout root with
``PYTHONPATH=src``.  Every input the program receives — query mixes,
prefixes, candidates, opinion writes, arrival schedules and probes — is
generated here from the workload seed, so one seed always gives the same
inputs.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): walk stores, traces.
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Instance:
    """The one problem instance every workload uses."""

    users: int
    horizon: int
    k: int
    #: Dataset seed: fixed, so the instance (and its exact answer) never
    #: changes with the workload seed.
    dataset_seed: int = 0
    dataset: str = "yelp"
    score: str = "plurality"

    def cli_args(self) -> list[str]:
        return [
            "--dataset", self.dataset,
            "--users", str(self.users),
            "--horizon", str(self.horizon),
            "--score", self.score,
            "--seed", str(self.dataset_seed),
        ]


@dataclass(frozen=True)
class Sizes:
    """How much work one run does (full size, or the self-check's tiny)."""

    instance: Instance
    #: Queries each offline process answers after the warm-up.  Multiples
    #: of 100 (5 writes, one write round over 10 candidates), so every
    #: timed stream writes each candidate equally often: some rw-store
    #: writes cost ~10x a query, and a stream cut mid-round made their
    #: share depend on the seed.
    exact_queries: int
    walk_queries: int
    #: Minimum fresh processes per offline run (more while time remains).
    exact_min_processes: int
    walk_min_warm: int
    #: serve-mixed: offered rates (queries/s), seconds per rate (a share
    #: of ``--seconds``), the server start count, how many of them (the
    #: last ones) answer a top-k selection, the requests each server
    #: answers for the latency metrics (one at a time, after a warm-up) and
    #: in the throughput loop (with how many kept in flight), and the p90
    #: latency limit for ``sustained_qps``.
    rates: tuple[tuple[str, float], ...]
    window_share: float
    server_starts: int
    select_servers: int
    latency_requests: int
    closed_requests: int
    closed_outstanding: int
    limit_ms: float


FULL = Sizes(
    instance=Instance(users=2000, horizon=10, k=10),
    exact_queries=200,
    walk_queries=100,
    exact_min_processes=3,
    walk_min_warm=2,
    rates=(("low", 10.0), ("mid", 20.0), ("high", 40.0)),
    window_share=0.15,
    server_starts=6,
    select_servers=3,
    latency_requests=250,
    closed_requests=400,
    closed_outstanding=4,
    limit_ms=100.0,
)

TINY = Sizes(
    instance=Instance(users=300, horizon=6, k=4),
    exact_queries=20,
    walk_queries=20,
    exact_min_processes=1,
    walk_min_warm=1,
    rates=(("low", 20.0), ("mid", 40.0), ("high", 60.0)),
    window_share=0.25,
    server_starts=1,
    select_servers=1,
    latency_requests=10,
    closed_requests=20,
    closed_outstanding=4,
    limit_ms=250.0,
)

#: Query mix per block of 20 requests (75% / 20% / 5%), shuffled per
#: block, so every stream carries the same mix whatever its seed.
MIX_BLOCK = ("marginal_gain",) * 15 + ("prefix_win_probability",) * 4 + ("apply_delta",)
PREFIX_POOL = 48  # larger than the server's 32-entry session cache
PREFIX_ZIPF = 1.1
PREFIX_POOL_SEED = 104729
CANDIDATES_PER_QUERY = 8
NODES_PER_DELTA = 2
PROBE_GAINS = 6
PROBE_WINS = 2
PROBE_STREAM = 1000
#: serve-mixed latency phase: requests kept in flight (one: each request
#: is timed alone, with no coalescing or queueing in its latency).
LATENCY_OUTSTANDING = 1
#: Mixed requests of the untimed warm-up, after its write round.
WARMUP_REQUESTS = 20


def pin_to_one_cpu() -> int | None:
    """Run this process, and every process it starts, on one CPU.

    On a shared host with few vCPUs, a run whose processes hand work to
    each other across CPUs waits on the hypervisor to wake an idle vCPU,
    and that wait moved the serve-mixed latency by 30% between sets of
    runs of the same code.  On one CPU every hand-off is a context switch
    on a busy CPU, so the run measures the program's work.  Returns the
    CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
class QueryGenerator:
    """The seeded query stream shared by every workload.

    ``marginal_gain`` requests draw Zipf-hot prefixes from a pool larger
    than the server's session cache; ``prefix_win_probability`` probes a
    prefix plus one node; ``apply_delta`` writes rewrite opinions on
    nodes no earlier write touched, so all writes commute and the final
    state does not depend on the order they arrive in.

    The op mix is exact in every block of :data:`MIX_BLOCK` requests and
    writes visit the candidates in seeded rounds: writes that touch the
    target change what later queries cost, so a drawn-at-random mix
    (3 to 16 writes in 200 queries) made the cost depend on the seed.
    The prefix pool is part of the workload, like the instance, and is
    drawn from :data:`PREFIX_POOL_SEED`.  The seed orders the ops and
    picks every request's prefix, candidates and writes.
    """

    def __init__(self, seed: int, n: int, r: int, stream: int = 0) -> None:
        self.n = int(n)
        self.r = int(r)
        self.rng = np.random.default_rng([int(seed), 7919, int(stream)])
        pool_rng = np.random.default_rng(PREFIX_POOL_SEED)
        self.prefixes: list[tuple[int, ...]] = []
        for i in range(PREFIX_POOL):
            size = 0 if i == 0 else int(pool_rng.integers(1, 4))
            nodes = pool_rng.choice(self.n, size=size, replace=False)
            self.prefixes.append(tuple(sorted(int(v) for v in nodes)))
        weights = 1.0 / np.arange(1, PREFIX_POOL + 1) ** PREFIX_ZIPF
        self.prefix_p = weights / weights.sum()
        # Writes consume a seeded node permutation, so no node is written
        # twice in one stream.
        write_rng = np.random.default_rng([int(seed), 104729])
        self._write_nodes = [int(v) for v in write_rng.permutation(self.n)]
        self._write_candidates: list[int] = []
        self._block: list[str] = []

    def _prefix(self) -> tuple[int, ...]:
        return self.prefixes[int(self.rng.choice(PREFIX_POOL, p=self.prefix_p))]

    def _fresh_nodes(self, count: int, exclude: tuple[int, ...]) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            v = int(self.rng.integers(0, self.n))
            if v not in exclude and v not in out:
                out.append(v)
        return out

    def gain(self) -> dict:
        prefix = self._prefix()
        cands = sorted(self._fresh_nodes(CANDIDATES_PER_QUERY, prefix))
        return {"op": "marginal_gain", "seeds": list(prefix), "candidates": cands}

    def win(self) -> dict:
        prefix = self._prefix()
        extra = self._fresh_nodes(1, prefix)
        return {"op": "prefix_win_probability", "seeds": list(prefix) + extra}

    def delta(self) -> dict | None:
        if len(self._write_nodes) < NODES_PER_DELTA:
            return None
        rows = []
        for _ in range(NODES_PER_DELTA):
            node = self._write_nodes.pop()
            # Writes visit the candidates in seeded rounds, so the target
            # takes its share of writes in every stream.
            if not self._write_candidates:
                self._write_candidates = [int(v) for v in self.rng.permutation(self.r)]
            candidate = self._write_candidates.pop()
            value = round(float(self.rng.random()), 6)
            rows.append([candidate, node, value])
        return {"op": "apply_delta", "opinions_changed": rows}

    def next(self) -> dict:
        if not self._block:
            self._block = [MIX_BLOCK[i] for i in self.rng.permutation(len(MIX_BLOCK))]
        op = self._block.pop()
        if op == "marginal_gain":
            return self.gain()
        if op == "prefix_win_probability":
            return self.win()
        return self.delta() or self.gain()

    def take(self, count: int) -> list[dict]:
        return [self.next() for _ in range(count)]

    def warmup(self) -> list[dict]:
        """The untimed prelude of a stream: one write round that rewrites
        an opinion of every candidate, then :data:`WARMUP_REQUESTS` mixed
        requests.

        The first write to the target's opinions changes what later
        queries cost (rw-store queries get about a quarter cheaper), and in
        a stream of seeded rounds that write comes anywhere in the first
        100 requests; after the prelude every timed stream starts past it.
        """
        rounds = -(-self.r // NODES_PER_DELTA)
        writes = [self.delta() for _ in range(rounds)]
        return [w for w in writes if w is not None] + self.take(WARMUP_REQUESTS)


def probe_set(seed: int, n: int, r: int) -> list[dict]:
    """Fixed read-only probes answered after the load (correctness)."""
    gen = QueryGenerator(seed, n, r, stream=PROBE_STREAM)
    return [gen.gain() for _ in range(PROBE_GAINS)] + [
        gen.win() for _ in range(PROBE_WINS)
    ]


def poisson_schedule(seed: int, rate: float, duration: float, stream: int) -> list[float]:
    """Arrival offsets (s) of a Poisson process at ``rate`` over ``duration``."""
    rng = np.random.default_rng([int(seed), 15485863, int(stream)])
    out: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return out
        out.append(t)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)
