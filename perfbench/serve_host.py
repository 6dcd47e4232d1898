"""Run ``repro serve`` with span tracing installed, then write the trace.

Run from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/serve_host.py --trace-out T.json -- serve --port 0 ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  When the
server stops (SIGTERM drains it), the spans are written to
``--trace-out`` together with the counters of each engine the server
held: evolution and IPC counters, per-worker dense column-steps and the
pool's round and busy-time totals.
"""

from __future__ import annotations

import argparse
import sys
import time

T_MAIN = time.monotonic()


def _engine_counters(hub) -> dict:
    from dataclasses import fields

    out = {}
    for spec, engine in getattr(hub, "_engines", {}).items():
        entry = {
            "stats": {f.name: getattr(engine.stats, f.name) for f in fields(engine.stats)},
            "pool_rounds": int(getattr(engine, "pool_rounds", 0)),
            "pool_busy_s": float(getattr(engine, "pool_busy_s", 0.0)),
        }
        worker_stats = getattr(engine, "worker_stats", None)
        if worker_stats is not None:
            entry["worker_dense_column_steps"] = [
                int(w.dense_column_steps) for w in worker_stats
            ]
        out[spec] = entry
    return out


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv[:split])

    import tracing

    tracer = tracing.Tracer()
    from repro import cli
    from repro.serve import server

    tracing.install(tracer)
    t_import = time.monotonic()
    captured: dict = {}
    run_server = server.run_server

    def run_server_captured(hub, **kwargs):
        captured["hub"] = hub
        return run_server(hub, **kwargs)

    # cmd_serve imports run_server at call time, so this reaches it.
    server.run_server = run_server_captured
    tracer.request = "setup"
    code = cli.main(argv[split + 1 :])
    tracer.dump(
        args.trace_out,
        t_main=T_MAIN,
        t_import=t_import,
        engines=_engine_counters(captured.get("hub")),
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
