"""Snapshot-seeded member bootstrap vs index-1 log replay.

The point of in-protocol snapshot shipping (``repro.snapshot``) is that a
factory-fresh member no longer needs the leader to retain — and re-ship —
the entire log from index 1. On an overwrite-heavy workload the engine
state is far smaller than the log, so shipping a consistent engine image
plus the log tail should beat replaying history on both wall-clock time
and cross-region bytes.

The experiment builds the same loaded two-region cluster twice:

- **index-1 replay**: wipe the remote database member and let vanilla
  catch-up stream the whole log across regions;
- **snapshot bootstrap**: first ``snapshot_and_compact()`` on the leader
  (which also purges the log prefix, so replay is no longer even
  possible), then wipe the same member and let the shipper seed it.

Both runs use the same seed and the same write stream, and both measure
from ``Network.reset_accounting()`` at the moment of the wipe until the
member's Raft log *and* engine have caught the leader's pre-wipe marks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import MyRaftReplicaset
from repro.cluster.topology import RegionSpec, ReplicaSetSpec
from repro.errors import ReproError
from repro.experiments.common import format_table
from repro.workload.profiles import sysbench_timing


@dataclass(frozen=True)
class BootstrapVariant:
    """One measured catch-up of the reimaged member."""

    label: str
    caught_up: bool
    catchup_seconds: float
    cross_region_bytes: int
    leader_first_index: int
    purged_files: int
    # Seeding evidence, both true the instant the member is caught up:
    # bytes the leader's shipper put on the wire, and installs the member
    # completed. (The leader's own ``snapshots_shipped`` counts the final
    # install *acknowledgement*, which is still crossing the WAN then.)
    snapshot_bytes_sent: int
    snapshot_installs: int


@dataclass
class SnapshotBootstrapResult:
    entries: int
    distinct_keys: int
    log_last_index: int
    index1: BootstrapVariant
    snapshot: BootstrapVariant
    converged: bool

    @property
    def byte_savings_percent(self) -> float:
        return (1.0 - self.snapshot.cross_region_bytes / self.index1.cross_region_bytes) * 100.0

    @property
    def speedup(self) -> float:
        return self.index1.catchup_seconds / self.snapshot.catchup_seconds

    def format_report(self) -> str:
        rows = [
            [
                v.label,
                f"{v.catchup_seconds:.2f}",
                v.cross_region_bytes,
                v.leader_first_index,
                v.purged_files,
                v.snapshot_bytes_sent,
                "yes" if v.caught_up else "NO",
            ]
            for v in (self.index1, self.snapshot)
        ]
        lines = [
            f"snapshot bootstrap: {self.entries} writes over {self.distinct_keys} keys "
            f"(log last index {self.log_last_index})",
            format_table(
                [
                    "bootstrap",
                    "catchup_s",
                    "cross_region_bytes",
                    "leader_first_idx",
                    "purged_files",
                    "snapshot_bytes",
                    "caught_up",
                ],
                rows,
            ),
            f"cross-region byte savings: {self.byte_savings_percent:.1f}%",
            f"catch-up speedup: {self.speedup:.1f}x",
            f"databases converged: {'yes' if self.converged else 'NO'}",
        ]
        return "\n".join(lines)


def _two_region_topology() -> ReplicaSetSpec:
    """One database + one logtailer per region: the smallest shape where
    replacing the remote database exercises a cross-region bootstrap."""
    return ReplicaSetSpec(
        "rs0",
        (
            RegionSpec("region0", databases=1, logtailers=1),
            RegionSpec("region1", databases=1, logtailers=1),
        ),
    )


def _pump_writes(cluster, primary, entries, distinct_keys, payload_bytes, rotate_every):
    """Drive ``entries`` overwrite-heavy writes (keys cycle mod
    ``distinct_keys`` so the engine stays tiny while the log grows), with
    a binlog rotation every ``rotate_every`` writes so compaction has
    whole closed files to drop. Keeps a window of writes in flight; the
    window (32) stays below ``distinct_keys`` so concurrent transactions
    never contend on a row lock."""
    value = "x" * payload_bytes
    in_flight: list = []
    submitted = 0
    rounds = 0
    while submitted < entries or in_flight:
        while submitted < entries and len(in_flight) < 32:
            key = submitted % distinct_keys
            in_flight.append(
                primary.submit_write("kv", {key: {"id": key, "n": submitted, "v": value}})
            )
            submitted += 1
            if submitted % rotate_every == 0:
                primary.flush_binary_logs()
        cluster.run(0.05)
        in_flight = [p for p in in_flight if not p.done()]
        rounds += 1
        if rounds > entries * 40:
            raise ReproError("write pump stalled")


def _quiesce(cluster, leader, timeout: float = 30.0) -> None:
    """Run until every member holds the leader's full log and the
    databases converge — so the measured phase sees only catch-up
    traffic, not leftover replication."""
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
    raise ReproError("cluster did not quiesce before measurement")


def _catch_up(cluster, name: str, goal_log: int, goal_engine: int, timeout: float):
    """Run until the (re-imaged) member has both the leader's log and the
    leader's applied engine state; returns (elapsed_sim_seconds, done)."""
    start = cluster.loop.now
    deadline = start + timeout
    while cluster.loop.now < deadline:
        cluster.run(0.1)
        service = cluster.services[name]  # reimage swaps the service object
        engine_index = service.mysql.engine.last_committed_opid.index
        if service.node.last_opid.index >= goal_log and engine_index >= goal_engine:
            return cluster.loop.now - start, True
    return cluster.loop.now - start, False


def _measure_variant(
    *,
    compact: bool,
    entries: int,
    distinct_keys: int,
    payload_bytes: int,
    rotate_every: int,
    seed: int,
    victim: str,
    timeout: float,
):
    cluster = MyRaftReplicaset(
        _two_region_topology(),
        seed=seed,
        timing=sysbench_timing(myraft=True),
        trace_capacity=5_000,
    )
    primary = cluster.bootstrap()
    cluster.run(0.5)
    _pump_writes(cluster, primary, entries, distinct_keys, payload_bytes, rotate_every)
    _quiesce(cluster, primary)

    purged: list[str] = []
    if compact:
        purged = primary.snapshot_and_compact()
        if not purged:
            raise ReproError("compaction purged nothing; raise entries/rotations")

    goal_log = primary.node.last_opid.index
    goal_engine = primary.mysql.engine.last_committed_opid.index
    cluster.net.reset_accounting()
    cluster.reimage_member(victim)
    elapsed, caught_up = _catch_up(cluster, victim, goal_log, goal_engine, timeout)

    variant = BootstrapVariant(
        label="snapshot" if compact else "index-1 replay",
        caught_up=caught_up,
        catchup_seconds=elapsed,
        cross_region_bytes=cluster.net.cross_region_bytes(),
        leader_first_index=primary.storage.first_index(),
        purged_files=len(purged),
        snapshot_bytes_sent=primary.node.snapshots.shipper.stats()["bytes_sent"],
        snapshot_installs=cluster.services[victim].node.metrics["snapshot_installs"],
    )
    return cluster, variant


def run_snapshot_bootstrap(
    entries: int = 5200,
    distinct_keys: int = 64,
    payload_bytes: int = 96,
    rotate_every: int = 400,
    seed: int = 7,
    catchup_timeout: float = 120.0,
) -> SnapshotBootstrapResult:
    """A/B the two bootstrap paths for a wiped cross-region member."""
    victim = "region1-db1"
    baseline_cluster, index1 = _measure_variant(
        compact=False,
        entries=entries,
        distinct_keys=distinct_keys,
        payload_bytes=payload_bytes,
        rotate_every=rotate_every,
        seed=seed,
        victim=victim,
        timeout=catchup_timeout,
    )
    snapshot_cluster, snapshot = _measure_variant(
        compact=True,
        entries=entries,
        distinct_keys=distinct_keys,
        payload_bytes=payload_bytes,
        rotate_every=rotate_every,
        seed=seed,
        victim=victim,
        timeout=catchup_timeout,
    )
    snapshot_cluster.run(1.0)
    converged = (
        baseline_cluster.databases_converged() and snapshot_cluster.databases_converged()
    )
    return SnapshotBootstrapResult(
        entries=entries,
        distinct_keys=distinct_keys,
        log_last_index=snapshot_cluster.primary_service().node.last_opid.index
        if snapshot_cluster.primary_service()
        else 0,
        index1=index1,
        snapshot=snapshot,
        converged=converged,
    )
