"""Load over the serving protocol (newline-delimited JSON).

:func:`open_loop` sends requests when they are due, whether or not
earlier ones have been answered, over a fixed number of pipelined
connections (round robin).  Each request is timed from when it was
*due*, so a stall also counts against the requests queued behind it; how
late the generator itself sent each request is recorded separately
(``late_s``).  :func:`closed_loop` keeps a fixed number of requests in
flight instead, which measures how many queries per second the server
completes when it is never idle.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One request: due/sent/received times (``time.monotonic``), the
    decoded response and its raw line."""

    due: float
    sent: float = 0.0
    received: float = 0.0
    response: dict | None = None
    raw: bytes = b""

    @property
    def latency_s(self) -> float:
        return self.received - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


@dataclass
class Connections:
    """Pipelined connections whose readers resolve responses by ``id``."""

    writers: list = field(default_factory=list)
    pending: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    @classmethod
    async def open(cls, host: str, port: int, count: int) -> "Connections":
        conns = cls()
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
            conns.writers.append(writer)
            conns.tasks.append(asyncio.create_task(conns._read(reader)))
        return conns

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            now = time.monotonic()
            payload = json.loads(line)
            entry = self.pending.pop(payload.get("id"), None)
            if entry is None:
                continue
            outcome, done = entry
            outcome.received = now
            outcome.response = payload
            outcome.raw = line
            if not done.done():
                done.set_result(None)

    def send(self, slot: int, request_id: int, payload: dict, outcome: Outcome) -> asyncio.Future:
        done = asyncio.get_running_loop().create_future()
        self.pending[request_id] = (outcome, done)
        line = json.dumps({"id": request_id, **payload}, separators=(",", ":")) + "\n"
        outcome.sent = time.monotonic()
        self.writers[slot % len(self.writers)].write(line.encode())
        return done

    async def request(self, request_id: int, payload: dict, timeout: float) -> Outcome:
        outcome = Outcome(due=time.monotonic())
        done = self.send(0, request_id, payload, outcome)
        await self.writers[0].drain()
        await asyncio.wait_for(done, timeout)
        return outcome

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self.tasks:
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)


async def open_loop(
    conns: Connections,
    first_id: int,
    offsets: list[float],
    payloads: list[dict],
    timeout: float,
) -> list[Outcome]:
    """Send ``payloads[i]`` at ``start + offsets[i]``; wait for every answer.

    Raises ``asyncio.TimeoutError`` if answers are still missing
    ``timeout`` seconds after the last send.
    """
    start = time.monotonic() + 0.02
    outcomes: list[Outcome] = []
    waits = []
    for i, (offset, payload) in enumerate(zip(offsets, payloads)):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(due=due)
        waits.append(conns.send(i, first_id + i, payload, outcome))
        outcomes.append(outcome)
        if i % 16 == 15:
            await asyncio.gather(*(w.drain() for w in conns.writers))
    await asyncio.gather(*(w.drain() for w in conns.writers))
    await asyncio.wait_for(asyncio.gather(*waits), timeout)
    return outcomes


async def closed_loop(
    conns: Connections,
    first_id: int,
    payloads: list[dict],
    outstanding: int,
    timeout: float,
) -> tuple[list[Outcome], float]:
    """Keep ``outstanding`` requests in flight until ``payloads`` run out;
    returns the outcomes and the elapsed seconds."""
    outcomes: list[Outcome | None] = [None] * len(payloads)
    pending = iter(enumerate(payloads))

    async def client(slot: int) -> None:
        writer = conns.writers[slot % len(conns.writers)]
        for i, payload in pending:
            outcome = Outcome(due=time.monotonic())
            done = conns.send(slot, first_id + i, payload, outcome)
            await writer.drain()
            await asyncio.wait_for(done, timeout)
            outcomes[i] = outcome

    start = time.monotonic()
    await asyncio.gather(*(client(slot) for slot in range(outstanding)))
    return [o for o in outcomes if o is not None], time.monotonic() - start
