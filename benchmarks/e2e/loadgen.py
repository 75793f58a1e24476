"""The benchmark's own load generator.

Simulated clients are coroutines on the cluster's event loop — one OS
process, one thread, however many clients a workload states. Two shapes:

- ``closed_loop_client``: sends its next request only after the previous
  one completed, then thinks (callers that each wait for a reply);
- ``scheduled_prober``: sends on a fixed schedule whatever happened to
  earlier requests, and times each request from when it was *due*, so a
  request due while no primary exists is counted — as a failure.

The generator draws only from its own ``RngStream`` child, never from the
cluster's streams, and talks to the cluster through ``primary_service``,
``submit_write`` and ``submit_read`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReadOnlyError, ReproError
from repro.sim.coro import spawn
from repro.sim.network import LatencyModel
from repro.sim.rng import RngStream


@dataclass
class ClientMix:
    """What one workload's clients send."""

    clients: int
    think_time: float  # mean of the exponential think time, seconds
    client_latency: LatencyModel  # one-way client ↔ primary
    rows_per_txn: int
    value_bytes: int
    key_space: int
    read_fraction: float = 0.0
    table: str = "bench"


@dataclass
class LoadLog:
    """Everything the clients observed. Latencies and counts cover only
    operations *started* inside the measured window; ``acked_values``
    and ``history`` cover the whole run (correctness is not windowed)."""

    measure_from: float = 0.0
    stop_at: float = 0.0
    write_latencies: list[float] = field(default_factory=list)
    read_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    completed_in_window: int = 0
    writes_in_window: int = 0
    # (table, pk) → (opid, value) of the acked write with the highest OpId.
    acked_values: dict = field(default_factory=dict)
    # Keys a failed-after-submission write may still have changed.
    uncertain_keys: set = field(default_factory=set)
    history: Any = None  # repro.check.history.HistoryRecorder, optional
    txn_counter: int = 0

    def in_window(self, started: float) -> bool:
        return self.measure_from <= started < self.stop_at

    def note_ack(self, table: str, rows: dict, opid: Any) -> None:
        for pk, row in rows.items():
            key = (table, pk)
            seen = self.acked_values.get(key)
            if seen is None or opid > seen[0]:
                self.acked_values[key] = (opid, row["v"])


def start_clients(cluster, mix: ClientMix, log: LoadLog, rng: RngStream) -> list:
    return [
        spawn(
            cluster.loop,
            closed_loop_client(cluster, mix, log, rng.child(f"client{i}"), i),
            label=f"e2e-client-{i}",
        )
        for i in range(mix.clients)
    ]


def closed_loop_client(cluster, mix: ClientMix, log: LoadLog, rng: RngStream, client_id: int):
    loop = cluster.loop
    while loop.now < log.stop_at:
        primary = cluster.primary_service()
        if primary is None:
            if log.in_window(loop.now):
                log.attempted += 1
                log.failed += 1
            yield 0.05  # discovery retry backoff
            continue
        if mix.read_fraction > 0 and rng.random() < mix.read_fraction:
            yield from _one_read(cluster, mix, log, rng, client_id, primary)
        else:
            yield from _one_write(cluster, mix, log, rng, client_id, primary)
        yield rng.expovariate(1.0 / mix.think_time)


def _one_write(cluster, mix: ClientMix, log: LoadLog, rng: RngStream, client_id: int, primary):
    loop = cluster.loop
    log.txn_counter += 1
    rows = {}
    for offset in range(mix.rows_per_txn):
        pk = rng.randint(0, mix.key_space - 1)
        rows[pk] = {"id": pk, "v": f"txn{log.txn_counter}.{offset}", "pad": "x" * mix.value_bytes}
    ops = []
    if log.history is not None:
        ops = [
            log.history.invoke(client_id, "write", (mix.table, pk), row["v"])
            for pk, row in rows.items()
        ]
    started = loop.now
    counted = log.in_window(started)
    if counted:
        log.attempted += 1
    yield mix.client_latency.sample(rng)  # request flight
    try:
        opid = yield primary.submit_write(mix.table, rows)
    except ReproError as err:
        if counted:
            log.failed += 1
        for op in ops:
            log.history.fail(op, definite=isinstance(err, ReadOnlyError))
        if not isinstance(err, ReadOnlyError):
            log.uncertain_keys.update((mix.table, pk) for pk in rows)
        yield 0.02
        return
    yield mix.client_latency.sample(rng)  # response flight
    for op in ops:
        log.history.complete(op)
    log.note_ack(mix.table, rows, opid)
    if counted:
        log.write_latencies.append(loop.now - started)
        log.writes_in_window += 1
        if loop.now <= log.stop_at:
            log.completed_in_window += 1


def _one_read(cluster, mix: ClientMix, log: LoadLog, rng: RngStream, client_id: int, primary):
    loop = cluster.loop
    pk = rng.randint(0, mix.key_space - 1)
    op = None
    if log.history is not None:
        op = log.history.invoke(client_id, "read", (mix.table, pk))
    started = loop.now
    counted = log.in_window(started)
    if counted:
        log.attempted += 1
    yield mix.client_latency.sample(rng)
    try:
        _opid, row = yield primary.submit_read(mix.table, pk)
    except ReproError:
        if counted:
            log.failed += 1
        if op is not None:
            log.history.fail(op, definite=True)  # a failed read constrains nothing
        yield 0.02
        return
    yield mix.client_latency.sample(rng)
    if op is not None:
        log.history.complete(op, value=row["v"] if row is not None else None)
    if counted:
        log.read_latencies.append(loop.now - started)
        if loop.now <= log.stop_at:
            log.completed_in_window += 1


@dataclass
class ProbeLog:
    """What a scheduled prober observed: one unique row per request."""

    ack_times: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    acked_ids: list[int] = field(default_factory=list)
    attempted: int = 0
    # Due times of requests that failed or found no writable primary.
    failure_dues: list[float] = field(default_factory=list)
    stop_at: float = float("inf")

    def failures_outside(self, start: float, end: float) -> int:
        """Failures not explained by an injected outage over [start, end]."""
        return sum(1 for due in self.failure_dues if not start <= due <= end)

    def downtime_after(self, event_time: float) -> float:
        """Last ack at/before ``event_time`` → first ack after it."""
        before = [t for t in self.ack_times if t <= event_time]
        after = [t for t in self.ack_times if t > event_time]
        if not before or not after:
            raise ReproError("probe acks do not bracket the event")
        return min(after) - max(before)

    def largest_gap(self, start: float, end: float) -> float:
        """Largest gap between consecutive acks overlapping [start, end]."""
        times = sorted(self.ack_times)
        gaps = [b - a for a, b in zip(times, times[1:]) if b >= start and a <= end]
        if not gaps:
            raise ReproError("too few probe acks around the window")
        return max(gaps)


def start_prober(cluster, log: ProbeLog, rng: RngStream, interval: float, client_latency: LatencyModel,
                 table: str = "probe"):
    return spawn(
        cluster.loop,
        scheduled_prober(cluster, log, rng, interval, client_latency, table),
        label="e2e-prober",
    )


def scheduled_prober(cluster, log: ProbeLog, rng: RngStream, interval: float,
                     client_latency: LatencyModel, table: str):
    loop = cluster.loop
    origin = loop.now
    sequence = 0
    while True:
        due = origin + sequence * interval
        if due > loop.now:
            yield due - loop.now
        if due >= log.stop_at:  # checked after the sleep: stop_at moves
            return
        sequence += 1
        log.attempted += 1
        primary = cluster.primary_service()
        if primary is None:
            log.failure_dues.append(due)  # due while nobody accepts writes
            continue
        spawn(
            loop,
            _one_probe(cluster, log, rng, primary, table, sequence, due, client_latency),
            label="e2e-probe-op",
        )


def _one_probe(cluster, log: ProbeLog, rng: RngStream, primary, table: str, probe_id: int,
               due: float, client_latency: LatencyModel):
    loop = cluster.loop
    yield client_latency.sample(rng)
    try:
        yield primary.submit_write(table, {probe_id: {"id": probe_id, "v": f"p{probe_id}"}})
    except ReproError:
        log.failure_dues.append(due)
        return
    yield client_latency.sample(rng)
    log.ack_times.append(loop.now)
    log.latencies.append(loop.now - due)
    log.acked_ids.append(probe_id)
