"""Workload specifications: who writes what, how often, from how far.

Two built-ins mirror §6.1's A/B test:

- :func:`production_workload` — closed-loop clients ~10 ms (RTT) from the
  primary, multi-row transactions, moderate rate;
- :func:`sysbench_workload` — co-located closed-loop clients hammering
  single-row updates (the sysbench OLTP write benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.sim.network import LatencyModel, LogNormalLatency
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class WorkloadSpec:
    """A closed-loop write workload."""

    name: str
    clients: int
    # Mean think time between a client's transactions (exponential).
    think_time: float
    # One-way client → primary latency model.
    client_latency: LatencyModel
    table: str = "bench"
    key_space: int = 100_000
    rows_per_txn: int = 1
    value_bytes: int = 64
    # Fraction of operations issued as linearizable reads (the target's
    # submit_read: ReadIndex reads on MyRaft, the commit-pipeline barrier
    # on the semi-sync baseline). 0.0 keeps the workload write-only and,
    # deliberately, draws nothing from the RNG — existing seeds replay
    # byte-identically.
    read_fraction: float = 0.0
    # Where clients send reads:
    # - "primary":   always the current writable primary;
    # - "sticky":    each client caches its first read target and keeps
    #                using it (even across leadership changes — modeling
    #                a stale routing cache) until a read fails;
    # - "followers": each read picks a random live non-primary database
    #                (each fetches the leader's ReadIndex, repro.reads).
    read_routing: str = "primary"

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ReproError("workload needs at least one client")
        if self.rows_per_txn < 1:
            raise ReproError("rows_per_txn must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ReproError("read_fraction must be in [0, 1]")
        if self.read_routing not in ("primary", "sticky", "followers"):
            raise ReproError(f"unknown read_routing {self.read_routing!r}")

    def sample_think(self, rng: RngStream) -> float:
        if self.think_time <= 0:
            return 0.0
        return rng.expovariate(1.0 / self.think_time)

    def make_rows(self, rng: RngStream, txn_counter: int) -> dict:
        rows = {}
        for offset in range(self.rows_per_txn):
            key = rng.randint(0, self.key_space - 1)
            rows[key] = {
                "id": key,
                "v": f"txn{txn_counter}.{offset}",
                "pad": "x" * self.value_bytes,
            }
        return rows


def production_workload(clients: int = 12, think_time: float = 0.08) -> WorkloadSpec:
    """Production-representative: remote clients (~5 ms one-way),
    multi-row transactions."""
    return WorkloadSpec(
        name="production",
        clients=clients,
        think_time=think_time,
        client_latency=LogNormalLatency(5.8e-3, 0.10, floor=2e-3),
        rows_per_txn=4,
        value_bytes=220,
    )


def sysbench_workload(clients: int = 8, think_time: float = 0.004) -> WorkloadSpec:
    """sysbench OLTP write: co-located clients (~15 µs one-way), hot
    single-row updates, much higher write rate than production (§6.1)."""
    return WorkloadSpec(
        name="sysbench",
        clients=clients,
        think_time=think_time,
        client_latency=LogNormalLatency(15e-6, 0.20, floor=5e-6),
        rows_per_txn=1,
        value_bytes=120,
        key_space=10_000,
    )
