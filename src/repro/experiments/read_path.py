"""Consistent-read path A/B (repro.reads): barrier vs ReadIndex vs lease
vs follower reads.

The paper's production deployments serve linearizable reads through the
primary; the legacy way to make a read linearizable is a *commit-pipeline
read barrier* — an empty marker transaction pushed through consensus, one
full cross-region round (and one log entry) per read. ``repro.reads``
replaces that with the classic escalation:

- **read_index** — the leader captures its commit index and confirms
  leadership with one batched quorum probe round (concurrent reads share
  a round);
- **lease** — quorum probe acks extend a clock-bound leader lease; while
  it is valid the leader serves reads with *zero* per-read network
  rounds;
- **follower** — any replica fetches the leader's ReadIndex (one 64-byte
  header RPC each way, batched per node, through the §4.2 proxy path
  when configured), waits for its applier, and serves locally.

The driver is fully scripted (no workload RNG): an identical write phase
per mode, a checksum capture, then an identical burst-read phase. Because
the write phase is sequential and the sim is deterministic in (seed,
config), the engine/log checksums after the write phase must be
byte-identical across all four Raft modes — reads must never change the
data path. Metrics compare read latency (p50/p99), read throughput,
cross-region bytes, probe rounds, and log growth during the read phase.

A fifth row measures the prior semi-sync setup's primary read (a plain
engine read with no quorum confirmation — cheap but *not* linearizable
under failover, which is why MyRaft needs the modes above).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.errors import ReproError
from repro.experiments.common import format_table
from repro.metrics import LatencyHistogram, summarize
from repro.raft.config import RaftConfig
from repro.sim.coro import spawn
from repro.workload.profiles import production_timing

RAFT_MODES = ("barrier", "read_index", "lease", "follower")

#: Probe-round slack for the lease gate: heartbeat-driven keepalive rounds
#: continue during the read phase; per-read rounds would blow well past
#: duration / heartbeat_interval + this.
LEASE_ROUND_SLACK = 3


@dataclass(frozen=True)
class ReadVariant:
    """One measured read phase."""

    label: str  # read mode
    seed: int
    reads: int
    read_errors: int
    p50_ms: float
    p99_ms: float
    avg_ms: float
    reads_per_sim_second: float
    read_phase_seconds: float
    cross_region_read_bytes: int  # network delta during the read phase
    probe_rounds: int  # ReadIndex quorum rounds during the read phase
    lease_reads: int  # reads served straight from a valid lease
    read_index_fetches: int  # follower -> leader ReadIndex requests
    read_index_forwards: int  # proxy hops for those requests
    log_entries_for_reads: int  # log growth during the read phase
    write_engine_checksum: int  # primary engine after the write phase
    write_log_checksum: str  # primary log after the write phase
    engines_converged: bool


@dataclass
class ReadPathResult:
    writes: int
    reads: int
    burst: int
    seeds: tuple
    variants: list  # ReadVariant, RAFT_MODES order then semisync, per seed

    def by_mode(self, label: str) -> list:
        return [v for v in self.variants if v.label == label]

    @property
    def state_matches(self) -> bool:
        """Write-phase engine and log checksums identical across the four
        Raft modes for every seed (the semi-sync baseline runs a different
        replication protocol and is excluded)."""
        for seed in self.seeds:
            raft = [
                v for v in self.variants if v.seed == seed and v.label in RAFT_MODES
            ]
            if len({v.write_engine_checksum for v in raft}) != 1:
                return False
            if len({v.write_log_checksum for v in raft}) != 1:
                return False
        return True

    def format_report(self) -> str:
        rows = [
            [
                v.label,
                v.seed,
                v.reads,
                f"{v.p50_ms:.2f}",
                f"{v.p99_ms:.2f}",
                f"{v.reads_per_sim_second:,.0f}",
                f"{v.cross_region_read_bytes:,}",
                v.probe_rounds,
                v.lease_reads,
                v.read_index_fetches,
                v.log_entries_for_reads,
                "yes" if v.engines_converged else "NO",
            ]
            for v in self.variants
        ]
        lines = [
            f"read path: {self.writes} writes then {self.reads} reads "
            f"(bursts of {self.burst}), paper topology "
            f"(seeds {', '.join(map(str, self.seeds))})",
            format_table(
                [
                    "mode",
                    "seed",
                    "reads",
                    "p50_ms",
                    "p99_ms",
                    "reads/s",
                    "xregion_B",
                    "rounds",
                    "leased",
                    "fetches",
                    "log+",
                    "converged",
                ],
                rows,
            ),
            f"write-phase engine/log checksums identical across raft modes: "
            f"{'yes' if self.state_matches else 'NO'}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "bench": "read_path",
            "writes": self.writes,
            "reads": self.reads,
            "burst": self.burst,
            "seeds": list(self.seeds),
            "variants": [asdict(v) for v in self.variants],
            "state_matches": self.state_matches,
        }


def _wait_done(cluster, processes, timeout: float, what: str) -> None:
    deadline = cluster.loop.now + timeout
    while any(not p.done() for p in processes):
        if cluster.loop.now >= deadline:
            raise ReproError(f"timed out waiting for {what}")
        cluster.run(0.01)


def _timed_read(cluster, target, table, pk, latencies, errors):
    started = cluster.loop.now
    try:
        _opid, _row = yield target.submit_read(table, pk)
    except Exception:  # noqa: BLE001 - counted, not fatal
        errors.append(cluster.loop.now - started)
        return
    latencies.append(cluster.loop.now - started)


def _write_phase(cluster, primary, writes: int, key_space: int) -> None:
    for i in range(writes):
        pk = i % key_space
        process = primary.submit_write("kv", {pk: {"id": pk, "v": f"w{i}"}})
        _wait_done(cluster, [process], 30.0, f"write {i}")
    cluster.run(2.0)  # let every replica's applier converge


def _read_phase(cluster, targets, reads: int, burst: int, key_space: int):
    latencies: list = []
    errors: list = []
    issued = 0
    while issued < reads:
        batch = []
        for _ in range(min(burst, reads - issued)):
            target = targets[issued % len(targets)]
            batch.append(
                spawn(
                    cluster.loop,
                    _timed_read(
                        cluster, target, "kv", issued % key_space, latencies, errors
                    ),
                    label=f"read-{issued}",
                )
            )
            issued += 1
        _wait_done(cluster, batch, 30.0, f"read burst ending at {issued}")
    return latencies, errors


def _sum_metric(cluster, key: str) -> int:
    return sum(s.node.metrics[key] for s in cluster.services.values())


def _run_raft_variant(
    mode: str, seed: int, writes: int, reads: int, burst: int, key_space: int
) -> ReadVariant:
    config = RaftConfig(read_mode=mode)
    cluster = MyRaftReplicaset(
        paper_topology(),
        seed=seed,
        raft_config=config,
        timing=production_timing(myraft=True),
        trace_capacity=256,
    )
    primary = cluster.bootstrap()
    _write_phase(cluster, primary, writes, key_space)

    write_engine_checksum = primary.mysql.engine.checksum()
    write_log_checksum = primary.mysql.log_manager.content_checksum()

    if mode == "follower":
        targets = [s for s in cluster.database_services() if s is not primary]
    else:
        targets = [primary]

    xregion_before = cluster.net.cross_region_bytes()
    rounds_before = _sum_metric(cluster, "read_probe_rounds")
    lease_before = _sum_metric(cluster, "lease_reads")
    fetches_before = _sum_metric(cluster, "read_index_fetches")
    forwards_before = _sum_metric(cluster, "read_index_forwards")
    log_before = primary.node.last_opid.index
    phase_started = cluster.loop.now

    latencies, errors = _read_phase(cluster, targets, reads, burst, key_space)

    phase_seconds = cluster.loop.now - phase_started
    hist = LatencyHistogram(f"read-{mode}")
    hist.extend(latencies)
    summary = summarize(hist).scaled(1e3)
    cluster.run(1.0)
    return ReadVariant(
        label=mode,
        seed=seed,
        reads=len(latencies),
        read_errors=len(errors),
        p50_ms=round(summary.median, 3),
        p99_ms=round(summary.p99, 3),
        avg_ms=round(summary.avg, 3),
        reads_per_sim_second=len(latencies) / phase_seconds if phase_seconds else 0.0,
        read_phase_seconds=phase_seconds,
        cross_region_read_bytes=cluster.net.cross_region_bytes() - xregion_before,
        probe_rounds=_sum_metric(cluster, "read_probe_rounds") - rounds_before,
        lease_reads=_sum_metric(cluster, "lease_reads") - lease_before,
        read_index_fetches=_sum_metric(cluster, "read_index_fetches") - fetches_before,
        read_index_forwards=_sum_metric(cluster, "read_index_forwards")
        - forwards_before,
        log_entries_for_reads=primary.node.last_opid.index - log_before,
        write_engine_checksum=write_engine_checksum,
        write_log_checksum=write_log_checksum,
        engines_converged=cluster.databases_converged(),
    )


def _run_semisync_variant(
    seed: int, writes: int, reads: int, burst: int, key_space: int
) -> ReadVariant:
    from repro.semisync.replicaset import SemiSyncReplicaset

    cluster = SemiSyncReplicaset(
        paper_topology(),
        seed=seed,
        timing=production_timing(myraft=False),
        trace_capacity=256,
    )
    primary = cluster.bootstrap()
    _write_phase(cluster, primary, writes, key_space)
    write_engine_checksum = primary.mysql.engine.checksum()
    write_log_checksum = primary.mysql.log_manager.content_checksum()
    xregion_before = cluster.net.cross_region_bytes()
    phase_started = cluster.loop.now
    latencies, errors = _read_phase(cluster, [primary], reads, burst, key_space)
    phase_seconds = cluster.loop.now - phase_started
    hist = LatencyHistogram("read-semisync")
    hist.extend(latencies)
    summary = summarize(hist).scaled(1e3)
    cluster.run(1.0)
    return ReadVariant(
        label="semisync",
        seed=seed,
        reads=len(latencies),
        read_errors=len(errors),
        p50_ms=round(summary.median, 3),
        p99_ms=round(summary.p99, 3),
        avg_ms=round(summary.avg, 3),
        reads_per_sim_second=len(latencies) / phase_seconds if phase_seconds else 0.0,
        read_phase_seconds=phase_seconds,
        cross_region_read_bytes=cluster.net.cross_region_bytes() - xregion_before,
        probe_rounds=0,
        lease_reads=0,
        read_index_fetches=0,
        read_index_forwards=0,
        log_entries_for_reads=0,
        write_engine_checksum=write_engine_checksum,
        write_log_checksum=write_log_checksum,
        engines_converged=True,
    )


def run_read_path(
    writes: int = 80,
    reads: int = 160,
    burst: int = 8,
    seeds: tuple = (1,),
    key_space: int = 64,
    include_semisync: bool = True,
) -> ReadPathResult:
    """All four Raft read modes (plus the semi-sync primary read) on the
    paper topology, per seed."""
    variants = []
    for seed in seeds:
        for mode in RAFT_MODES:
            variants.append(
                _run_raft_variant(mode, seed, writes, reads, burst, key_space)
            )
        if include_semisync:
            variants.append(
                _run_semisync_variant(seed, writes, reads, burst, key_space)
            )
    return ReadPathResult(
        writes=writes, reads=reads, burst=burst, seeds=tuple(seeds), variants=variants
    )
