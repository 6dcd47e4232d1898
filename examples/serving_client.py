#!/usr/bin/env python3
"""The serving layer end to end: concurrent queries, a delta, counters.

Starts the asyncio query server in-process on a tiny Yelp-like network,
fires a burst of concurrent requests from several pipelined connections —
marginal gains sharing a committed prefix, win/value probes, a top-k —
applies one graph delta mid-stream, and prints what the server did with
the burst: how many engine rounds the coalescing batcher actually ran,
how much evolution work the candidate-union sharing saved, and the
graph versions stamped on responses before and after the delta.

The equivalent over real processes is:

    python -m repro serve --dataset yelp --users 200 --engine dm-batched &
    # wait for "serving on 127.0.0.1:PORT"
    python -m repro serve-load --port PORT --requests 64

Run:  PYTHONPATH=src python examples/serving_client.py
"""

import asyncio

from repro.datasets.yelp import yelp_like
from repro.serve import EngineHub, QueryServer, ServeClient
from repro.voting.scores import CumulativeScore


async def main() -> None:
    dataset = yelp_like(n=200, rng=11, horizon=8)
    problem = dataset.problem(CumulativeScore())
    hub = EngineHub(problem, ["dm-batched", "dm-mp:2"], rng=11)
    server = QueryServer(hub)
    host, port = await server.start()
    print(f"serving {dataset.name} (n={problem.n}) on {host}:{port}\n")

    clients = [await ServeClient.connect(host, port) for _ in range(4)]
    try:
        # --- a concurrent burst sharing the committed prefix [3] -------
        burst = [
            clients[i % 4].request(
                "marginal_gain", seeds=[3], candidates=[10 + 2 * i, 11 + 2 * i]
            )
            for i in range(8)
        ] + [
            clients[i % 4].request("prefix_win_probability", seeds=[3, 50 + i])
            for i in range(4)
        ] + [clients[0].request("top_k_seeds", k=3)]
        responses = await asyncio.gather(*burst)
        for label, response in zip(("gain", "win", "topk"), responses[:1] + responses[8:9] + responses[12:]):
            print(f"{label}: {response['result']}")

        # --- one delta: responses on either side carry distinct versions
        before = await clients[0].request(
            "marginal_gain", seeds=[3], candidates=[10]
        )
        delta = await clients[1].request(
            "apply_delta", edges_added=[[0, 10, 0.4], [5, 10, 0.2]]
        )
        after = await clients[2].request(
            "marginal_gain", seeds=[3], candidates=[10]
        )
        print(
            f"\ndelta: graph_version {before['graph_version']} -> "
            f"{after['graph_version']} "
            f"(report: {delta['result']['edges_added']} edges added); "
            f"gain of node 10 moved "
            f"{before['result']['gains'][0]:.4f} -> "
            f"{after['result']['gains'][0]:.4f}"
        )

        # --- what the batcher actually did with all that ---------------
        stats = (await clients[0].request("stats"))["result"]
        serve = stats["serve"]
        print(
            f"\ncoalescing counters: {serve['requests_total']} requests in "
            f"{serve['engine_rounds']} engine rounds "
            f"({serve['rounds_coalesced']} rounds answered "
            f"{serve['requests_coalesced']} coalesced requests; "
            f"{serve['evolution_sets_saved']} evolved sets saved)"
        )
        pool = stats["engines"]["dm-mp:2"]["pool"]
        print(
            f"warm dm-mp pool: {pool['workers']} workers over "
            f"{pool['transport']}, {pool['rounds']} rounds, "
            f"{pool['busy_s']:.3f}s busy"
        )
    finally:
        for client in clients:
            await client.close()
        await server.aclose()
    print("\nserver closed; worker pools stopped")


if __name__ == "__main__":
    asyncio.run(main())
