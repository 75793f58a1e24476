"""Leader replication hot-path: shared fan-out reads + read-through cache.

The paper's §3.1 log abstraction serves AppendEntries "from the
in-memory cache when possible, falling back to parsing historical binlog
files". On the §6.1 evaluation topology the leader fans out to ~19 peers
(5 follower databases, 12 logtailer witnesses, 2 learners), and before
this optimization every peer at the same send cursor paid its own
storage fallback — and a cache miss never populated the cache.

This experiment drives the paper topology under a sysbench-like write
stream twice with the same seed — once with the legacy per-peer read
path (``shared_fanout_reads=False, cache_read_through=False``) and once
with the shared/read-through path — and reports *wall-clock* cost:
events/sec, storage reads per committed write, cache hit rate, and
elapsed seconds. The log cache is deliberately sized below the
cross-region replication lag window so the storage-fallback path is hot,
which is exactly the regime the optimization targets. Simulated timing
is identical between variants (the flags change how entry bytes are
fetched, not what is sent); the §5.1 content checksums assert the
replicated logs are byte-identical across members *and* across variants.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.errors import ReproError
from repro.experiments.common import format_table
from repro.raft.config import RaftConfig
from repro.workload.profiles import sysbench_timing


@dataclass(frozen=True)
class HotpathVariant:
    """One measured run of the paper topology under the write stream."""

    label: str
    wall_seconds: float
    sim_seconds: float
    events_processed: int
    events_per_wall_second: float
    writes: int
    writes_per_wall_second: float
    storage_entry_reads: int
    file_byte_reads: int
    replication_rounds: int
    reads_per_write: float
    cache_hits: int
    cache_misses: int
    cache_fills: int
    cache_evictions: int
    cache_hit_rate: float
    log_last_index: int
    log_checksum: str
    engines_converged: bool
    logs_converged: bool


@dataclass
class ReplHotpathResult:
    entries: int
    seed: int
    payload_bytes: int
    cache_bytes: int
    peers: int
    legacy: HotpathVariant
    shared: HotpathVariant

    @property
    def read_reduction(self) -> float:
        """How many times fewer leader storage reads per committed write
        the shared path does (the headline acceptance bar). Per write,
        not per replication round: group commit made rounds ~10x rarer
        and their size load-dependent, while the writes are the same in
        both variants."""
        if self.shared.reads_per_write <= 0:
            return float("inf") if self.legacy.reads_per_write > 0 else 1.0
        return self.legacy.reads_per_write / self.shared.reads_per_write

    @property
    def wall_speedup(self) -> float:
        if self.shared.wall_seconds <= 0:
            return float("inf")
        return self.legacy.wall_seconds / self.shared.wall_seconds

    @property
    def logs_match(self) -> bool:
        """Byte-identical replicated logs: within each cluster (§5.1
        checksum over every database member) and across the two variants
        (the optimization must not change what is replicated)."""
        return (
            self.legacy.logs_converged
            and self.shared.logs_converged
            and self.legacy.engines_converged
            and self.shared.engines_converged
            and self.legacy.log_checksum == self.shared.log_checksum
        )

    def format_report(self) -> str:
        rows = [
            [
                v.label,
                f"{v.wall_seconds:.2f}",
                f"{v.events_per_wall_second:,.0f}",
                f"{v.writes_per_wall_second:,.0f}",
                v.storage_entry_reads,
                v.replication_rounds,
                f"{v.reads_per_write:.2f}",
                f"{v.cache_hit_rate * 100:.1f}%",
                "yes" if (v.logs_converged and v.engines_converged) else "NO",
            ]
            for v in (self.legacy, self.shared)
        ]
        lines = [
            f"repl hot-path: {self.entries} writes, {self.peers} peers, "
            f"{self.cache_bytes}B log cache (seed {self.seed})",
            format_table(
                [
                    "variant",
                    "wall_s",
                    "events/s",
                    "writes/s",
                    "entry_reads",
                    "rounds",
                    "reads/write",
                    "cache_hit",
                    "converged",
                ],
                rows,
            ),
            f"storage reads/write reduction: {self.read_reduction:.2f}x",
            f"wall-clock speedup: {self.wall_speedup:.2f}x",
            f"logs byte-identical across members and variants: "
            f"{'yes' if self.logs_match else 'NO'}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "bench": "repl_hotpath",
            "entries": self.entries,
            "seed": self.seed,
            "payload_bytes": self.payload_bytes,
            "cache_bytes": self.cache_bytes,
            "peers": self.peers,
            "before": asdict(self.legacy),
            "after": asdict(self.shared),
            "read_reduction": round(self.read_reduction, 2),
            "wall_speedup": round(self.wall_speedup, 3),
            "logs_match": self.logs_match,
        }


class _EntryReadProbe:
    """Counts LogStorage.entry() calls on one storage instance."""

    def __init__(self, storage) -> None:
        self.reads = 0
        inner = storage.entry

        def counting_entry(index):
            self.reads += 1
            return inner(index)

        storage.entry = counting_entry


def _pump_writes(
    cluster, primary, first, count, distinct_keys, payload_bytes, rotate_every
):
    """Drive ``count`` sysbench-like single-row overwrites (numbered from
    ``first``) with a bounded in-flight window, rotating the binlog
    periodically so the per-file index-range maintenance is exercised too."""
    value = "x" * payload_bytes
    in_flight: list = []
    submitted = 0
    rounds = 0
    while submitted < count or in_flight:
        while submitted < count and len(in_flight) < 32:
            n = first + submitted
            key = n % distinct_keys
            in_flight.append(
                primary.submit_write("kv", {key: {"id": key, "n": n, "v": value}})
            )
            submitted += 1
            if n and n % rotate_every == 0:
                primary.flush_binary_logs()
        cluster.run(0.05)
        in_flight = [p for p in in_flight if not p.done()]
        rounds += 1
        if rounds > count * 40:
            raise ReproError("write pump stalled")


def _quiesce(cluster, leader, timeout: float = 60.0) -> None:
    goal = leader.node.last_opid.index
    deadline = cluster.loop.now + timeout
    while cluster.loop.now < deadline:
        cluster.run(0.25)
        behind = [
            name
            for name, service in cluster.services.items()
            if service.node.last_opid.index < goal
        ]
        if not behind and cluster.databases_converged():
            return
    raise ReproError(f"replicaset did not quiesce within {timeout}s: behind={behind}")


def _run_variant(
    label: str,
    optimized: bool,
    entries: int,
    seed: int,
    payload_bytes: int,
    cache_bytes: int,
) -> HotpathVariant:
    config = RaftConfig(
        log_cache_max_bytes=cache_bytes,
        shared_fanout_reads=optimized,
        cache_read_through=optimized,
    )
    cluster = MyRaftReplicaset(
        paper_topology(),
        seed=seed,
        raft_config=config,
        timing=sysbench_timing(myraft=True),
        trace_capacity=256,
    )
    primary = cluster.bootstrap()
    node = primary.node

    # Probe after bootstrap so election/no-op traffic isn't measured.
    probe = _EntryReadProbe(primary.storage)
    byte_reads_before = primary.mysql.log_manager.read_calls
    rounds_before = node.metrics["replication_rounds"]
    cache_before = node.cache.stats()
    events_before = cluster.loop.events_processed
    sim_before = cluster.loop.now

    # One region (a database and its two logtailers) goes dark for the
    # middle third of the run, then catches up while writes continue —
    # the §3.1 storage-fallback path: the leader serves their lagging
    # cursors by parsing historical binlog files. Three peers at the
    # same cursor is exactly where shared reads + read-through pay off.
    region = next(
        s.host.region
        for s in cluster.database_services()
        if s.host.region != primary.host.region
    )
    lagging_region = [
        n for n, s in cluster.services.items() if s.host.region == region
    ]
    pump = dict(distinct_keys=64, payload_bytes=payload_bytes, rotate_every=200)
    third = entries // 3

    started = time.perf_counter()
    _pump_writes(cluster, primary, 0, third, **pump)
    for name in lagging_region:
        cluster.crash(name)
    _pump_writes(cluster, primary, third, third, **pump)
    for name in lagging_region:
        cluster.restart(name)
    _pump_writes(cluster, primary, 2 * third, entries - 2 * third, **pump)
    _quiesce(cluster, primary)
    wall = time.perf_counter() - started

    stats = node.stats()
    cache = stats["cache"]
    hits = cache["hits"] - cache_before["hits"]
    misses = cache["misses"] - cache_before["misses"]
    lookups = hits + misses
    rounds = node.metrics["replication_rounds"] - rounds_before
    checksums = {
        s.host.name: s.mysql.log_manager.content_checksum()
        for s in cluster.database_services()
    }
    reference = checksums[primary.host.name]
    return HotpathVariant(
        label=label,
        wall_seconds=wall,
        sim_seconds=cluster.loop.now - sim_before,
        events_processed=cluster.loop.events_processed - events_before,
        events_per_wall_second=(cluster.loop.events_processed - events_before) / wall,
        writes=entries,
        writes_per_wall_second=entries / wall,
        storage_entry_reads=probe.reads,
        file_byte_reads=primary.mysql.log_manager.read_calls - byte_reads_before,
        replication_rounds=rounds,
        reads_per_write=probe.reads / entries if entries else 0.0,
        cache_hits=hits,
        cache_misses=misses,
        cache_fills=cache["fills"] - cache_before["fills"],
        cache_evictions=cache["evictions"] - cache_before["evictions"],
        cache_hit_rate=hits / lookups if lookups else 0.0,
        log_last_index=node.last_opid.index,
        log_checksum=reference,
        engines_converged=cluster.databases_converged(),
        logs_converged=all(c == reference for c in checksums.values()),
    )


def run_repl_hotpath(
    entries: int = 600,
    seed: int = 1,
    payload_bytes: int = 220,
    cache_bytes: int = 48 << 10,
) -> ReplHotpathResult:
    """Run the legacy and the shared/read-through hot path back to back
    on the paper topology with an identical write stream."""
    legacy = _run_variant("per-peer reads", False, entries, seed, payload_bytes, cache_bytes)
    shared = _run_variant("shared fan-out", True, entries, seed, payload_bytes, cache_bytes)
    peers = len(paper_topology().members()) - 1
    return ReplHotpathResult(
        entries=entries,
        seed=seed,
        payload_bytes=payload_bytes,
        cache_bytes=cache_bytes,
        peers=peers,
        legacy=legacy,
        shared=shared,
    )
