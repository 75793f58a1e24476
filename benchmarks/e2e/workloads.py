"""The four workloads.

Each workload is four phases run by ``child.run_once``:

- ``setup``   — build, bootstrap, preload (wall time → ``setup_s``);
- ``warmup``  — start the load and let caches fill (never measured);
- ``measure`` — the timed region (CPU time → ``cpu_s``; the root span), a
  generator of slices: it yields after each, saying whether another
  follows (the host's speed is sampled between them);
- ``after_slice`` — what a slice leaves to do that must not be timed
  (``failover_drill`` drains and checks each trial's cluster here);
- ``finish``  — quiesce, check correctness, compute simulated metrics.

Input size is a pure function of ``--seconds``: every workload states
how much simulated work costs about one standard CPU-second (see
``child.HostSpeed``), so a run measures for about ``--seconds`` and, for
a given (seed, seconds), simulates exactly the same thing everywhere.
Client counts never scale — only simulated duration and trial counts do.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.check.history import HistoryRecorder, check_linearizable
from repro.cluster import MyRaftReplicaset, paper_topology
from repro.errors import ReproError
from repro.mysql.server import ServerRole
from repro.raft.config import RaftConfig
from repro.sim.coro import spawn
from repro.sim.network import LogNormalLatency
from repro.sim.rng import RngStream
from repro.workload import production_timing, sysbench_timing

from benchmarks.e2e import stats
from benchmarks.e2e.loadgen import ClientMix, LoadLog, ProbeLog, start_clients, start_prober

COLOCATED = LogNormalLatency(15e-6, 0.20, floor=5e-6)  # sysbench: same machine
REMOTE = LogNormalLatency(5.8e-3, 0.10, floor=2e-3)  # production: ~5.8 ms one-way

SYSBENCH_MIX = ClientMix(
    clients=8, think_time=0.004, client_latency=COLOCATED,
    rows_per_txn=1, value_bytes=120, key_space=10_000,
)
PROD_MIX = ClientMix(
    clients=12, think_time=0.08, client_latency=REMOTE,
    rows_per_txn=4, value_bytes=220, key_space=2_000, read_fraction=0.5,
)


# -- counters ---------------------------------------------------------------------


def snapshot_counters(cluster) -> dict[str, float]:
    """Cumulative public counters of one cluster, flattened. Differences
    of two snapshots are exact counts for the interval between them."""
    loop = cluster.loop.stats()
    net = cluster.net
    out: dict[str, float] = {
        "sim_now": loop["now"],
        "events": loop["events_processed"],
        "timers": loop["timers_scheduled"],
        # Every scheduled timer has fired, is still armed, or was cancelled.
        "timers_cancelled": loop["timers_scheduled"] - loop["events_processed"] - loop["armed_timers"],
        "net_msgs": sum(link.messages for link in net.link_stats.values()),
        "net_bytes": net.total_bytes(),
        "xregion_bytes": net.cross_region_bytes(),
        "net_coalesced": sum(net.coalescing_stats(name)["coalesced_messages"] for name in cluster.hosts),
    }
    sums = dict.fromkeys(
        ("elections_started", "elections_won", "replication_rounds", "proposals",
         "proposal_batches", "read_probe_rounds", "cache_hits", "cache_misses", "appends",
         "append_entries", "heartbeats_suppressed", "snapshot_bytes", "snapshot_chunks",
         "snapshot_chunks_deduped", "snapshot_delta_installs", "snapshot_installs",
         "pipeline_groups", "pipeline_txns", "applied"),
        0.0,
    )
    inflight_hwm = 0
    for service in cluster.services.values():
        node = service.node
        node_stats = node.stats()
        for key in ("elections_started", "elections_won", "replication_rounds", "proposals",
                    "proposal_batches", "read_probe_rounds"):
            sums[key] += node.metrics[key]
        sums["cache_hits"] += node_stats["cache"]["hits"]
        sums["cache_misses"] += node_stats["cache"]["misses"]
        appends = node_stats["write_path"]["entries_per_append"]
        if appends["count"]:
            sums["appends"] += appends["count"]
            sums["append_entries"] += appends["mean"] * appends["count"]
        sums["heartbeats_suppressed"] += node_stats["write_path"]["heartbeats_suppressed"]
        inflight_hwm = max(inflight_hwm, node_stats["write_path"]["inflight_hwm"])
        shipper = node_stats["snapshot"].get("shipper", {})
        installer = node_stats["snapshot"].get("installer", {})
        sums["snapshot_bytes"] += shipper.get("bytes_sent", 0)
        sums["snapshot_chunks"] += shipper.get("chunks_sent", 0)
        sums["snapshot_chunks_deduped"] += shipper.get("chunks_deduped", 0)
        sums["snapshot_delta_installs"] += installer.get("delta_installs", 0)
        sums["snapshot_installs"] += installer.get("installs", 0)
    for service in cluster.database_services():
        pipeline = service.mysql.pipeline
        if pipeline is not None and pipeline.name.endswith("primary-pipeline"):
            sums["pipeline_groups"] += pipeline.groups_flushed
            sums["pipeline_txns"] += pipeline.txns_flushed
        if service.applier is not None:
            sums["applied"] += service.applier.stats()["applied"]
    out.update(sums)
    out["inflight_hwm"] = inflight_hwm
    return out


def counters_delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    delta = {key: value - before[key] for key, value in after.items()}
    delta["inflight_hwm"] = after["inflight_hwm"]  # a high-water mark, not a sum
    return delta


def counters_add(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        if key == "inflight_hwm":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


# -- outcome ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run of one workload produced, before host-clock numbers."""

    sim: dict[str, float] = field(default_factory=dict)  # simulated-clock metrics
    samples: dict[str, dict] = field(default_factory=dict)  # metric → {level, n}
    counters: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    refused: int = 0  # every failed or refused request, injected outages included
    failed: int = 0  # those no injected fault explains (reported to the driver)
    txns: int = 0  # acked client ops inside the measured window
    reads: int = 0
    failovers: int = 0
    elections_started: int = 0  # between a failover's crash and its recovery
    elections_won: int = 0
    lag_peak: int = 0
    phases: list = field(default_factory=list)  # traced failover splits
    violations: list[str] = field(default_factory=list)
    digest: str = ""

    def percentiles(self, prefix: str, unit: str, values: list[float], scale: float = 1.0,
                    tail_name: str = "p99", cap: float = 99.0) -> None:
        """Record ``<prefix>_p50_<unit>`` and the tail percentile of
        ``values`` (by the rule in ``stats``), each with level and n."""
        if not values:
            return
        top = stats.tail(values, cap)
        for name, value, level in (
            (f"{prefix}_p50_{unit}", stats.median(values), 50.0),
            (f"{prefix}_{tail_name}_{unit}", top.value, top.level),
        ):
            self.sim[name] = value * scale
            self.samples[name] = {"level": level, "n": len(values)}


def make_digest(**parts: Any) -> str:
    """sha256 over everything an "identical behaviour" claim rests on."""
    blob = json.dumps(parts, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def writable_primaries(cluster) -> list[str]:
    return [
        service.host.name
        for service in cluster.database_services()
        if service.host.alive
        and service.node.is_leader
        and service.mysql.role == ServerRole.PRIMARY
        and not service.mysql.read_only
    ]


def election_counts(cluster) -> tuple[int, int]:
    """(elections started, elections won) summed over every member."""
    nodes = [service.node for service in cluster.services.values()]
    return (
        sum(node.metrics["elections_started"] for node in nodes),
        sum(node.metrics["elections_won"] for node in nodes),
    )


def log_checksum(cluster) -> str:
    primary = cluster.primary_service()
    return primary.mysql.log_manager.content_checksum() if primary is not None else ""


def start_lag_sampler(cluster, outcome: Outcome, stop_at: float, interval: float = 0.05):
    """Track the worst replica apply lag (leader commit index minus a live
    replica's engine watermark, in entries). Reads state only."""

    def sampler():
        while cluster.loop.now < stop_at:
            primary = cluster.primary_service()
            if primary is not None:
                commit = primary.node.commit_index
                for service in cluster.database_services():
                    if service.host.alive and service is not primary:
                        lag = commit - service.mysql.engine.last_committed_opid.index
                        if lag > outcome.lag_peak:
                            outcome.lag_peak = lag
            yield interval

    return spawn(cluster.loop, sampler(), label="e2e-lag-sampler")


# -- load workloads -----------------------------------------------------------------


class LoadWorkload:
    """A cluster under closed-loop clients for a fixed simulated time."""

    name = ""
    mix: ClientMix
    # Simulated seconds of measured load that cost ~1 CPU-second.
    sim_s_per_second = 1.0
    min_measured = 0.1
    full_warmup = 0.5
    full_seconds = 20.0  # --seconds that reproduces the issue's full size
    record_history = False
    slices = 16  # the timed region pauses this often for a host-speed sample

    def build_cluster(self, seed: int) -> MyRaftReplicaset:
        raise NotImplementedError

    def measured_sim_seconds(self, seconds: float) -> float:
        return max(self.min_measured, round(seconds * self.sim_s_per_second, 3))

    def setup(self, seed: int, seconds: float, tracing=None) -> dict:
        cluster = self.build_cluster(seed)
        cluster.bootstrap()
        measured = self.measured_sim_seconds(seconds)
        return {
            "cluster": cluster,
            "measured": measured,
            "warm": min(self.full_warmup, measured / 4.0),
            "rng": RngStream(seed).child(f"e2e/{self.name}"),
            "log": LoadLog(history=HistoryRecorder(cluster.loop) if self.record_history else None),
            "outcome": Outcome(),
            "tracing": tracing,
        }

    def warmup(self, state: dict) -> None:
        cluster, log = state["cluster"], state["log"]
        log.measure_from = cluster.loop.now + state["warm"]
        log.stop_at = log.measure_from + state["measured"]
        state["clients"] = start_clients(cluster, self.mix, log, state["rng"])
        start_lag_sampler(cluster, state["outcome"], log.stop_at)
        cluster.run(state["warm"])
        if state["tracing"] is not None:
            state["tracing"].set_measure_from(log.measure_from)
        state["before"] = snapshot_counters(cluster)

    def measure(self, state: dict):
        for remaining in reversed(range(self.slices)):
            state["cluster"].run(state["measured"] / self.slices)
            yield remaining > 0

    def after_slice(self, state: dict) -> None:
        """Nothing: a slice of steady load leaves nothing to check."""

    def finish(self, state: dict) -> Outcome:
        cluster, log, outcome = state["cluster"], state["log"], state["outcome"]
        outcome.counters = counters_delta(snapshot_counters(cluster), state["before"])
        self.quiesce(state)
        outcome.attempted, outcome.failed, outcome.refused = log.attempted, log.failed, log.failed
        outcome.txns = log.completed_in_window
        outcome.reads = len(log.read_latencies)
        outcome.percentiles("write_commit", "us", log.write_latencies, 1e6)
        outcome.percentiles("read", "us", log.read_latencies, 1e6)
        outcome.sim["sim_txn_per_s"] = log.completed_in_window / state["measured"]
        outcome.sim["cross_region_bytes_per_txn"] = (
            outcome.counters["xregion_bytes"] / max(1, log.writes_in_window)
        )
        outcome.violations += check_cluster(cluster, log)
        outcome.digest = make_digest(
            engines=cluster.engine_checksums(),
            log=log_checksum(cluster),
            counts=[log.attempted, log.failed, log.completed_in_window, log.writes_in_window],
            writes=sorted(log.write_latencies),
            reads=sorted(log.read_latencies),
            sim=outcome.sim,
        )
        return outcome

    def quiesce(self, state: dict, cap: float = 30.0) -> None:
        """Let in-flight client ops finish and every live replica apply."""
        cluster = state["cluster"]
        deadline = cluster.loop.now + cap
        while cluster.loop.now < deadline:
            cluster.run(0.25)
            if all(c.done() for c in state["clients"]) and cluster.databases_converged():
                return
        state["outcome"].violations.append(f"did not quiesce within {cap} simulated seconds")


def check_cluster(cluster, log: LoadLog) -> list[str]:
    """The correctness checks every load workload shares (never timed)."""
    violations = []
    if not cluster.databases_converged():
        violations.append("databases_converged() is false after quiesce")
    if not cluster.logs_prefix_equal():
        violations.append("logs_prefix_equal() is false after quiesce")
    primaries = writable_primaries(cluster)
    if len(primaries) != 1:
        violations.append(f"expected one writable primary, found {primaries}")
        return violations
    engine = cluster.server(primaries[0]).mysql.engine
    lost = 0
    for (table, pk), (_opid, value) in log.acked_values.items():
        if (table, pk) in log.uncertain_keys:
            continue
        row = engine.table(table).get(pk)
        if row is None or row["v"] != value:
            lost += 1
    if lost:
        violations.append(f"{lost} acknowledged writes are not readable on the primary")
    if log.history is not None:
        report = check_linearizable(log.history)
        if not report.ok:
            violations.append(report.describe())
    return violations


class SysbenchWrite(LoadWorkload):
    """§6.1 sysbench OLTP write on the full 20-member topology."""

    name = "sysbench_write"
    mix = SYSBENCH_MIX
    sim_s_per_second = 0.2  # ~1 770 writes per simulated second
    full_warmup = 0.5
    full_seconds = 20.0  # 4 simulated seconds, ~6.9 k writes

    def build_cluster(self, seed: int) -> MyRaftReplicaset:
        return MyRaftReplicaset(paper_topology(), seed=seed, timing=sysbench_timing(myraft=True))


class ProdMixed(LoadWorkload):
    """Production-profile transactions with 50 % ReadIndex reads."""

    name = "prod_mixed"
    mix = PROD_MIX
    sim_s_per_second = 3.0  # ~130 ops per simulated second
    full_warmup = 1.0
    full_seconds = 13.5  # ~40 simulated seconds, ~2.6 k reads + ~2.6 k writes
    record_history = True

    def build_cluster(self, seed: int) -> MyRaftReplicaset:
        return MyRaftReplicaset(
            paper_topology(),
            seed=seed,
            timing=production_timing(myraft=True),
            raft_config=RaftConfig(read_mode="read_index"),
        )


class OutageCatchup(LoadWorkload):
    """A region outage and a crashed replica under sysbench load, then
    compaction, heal and catch-up from history (log, snapshot, delta)."""

    name = "outage_catchup"
    mix = SYSBENCH_MIX
    sim_s_per_second = 0.45
    min_measured = 1.0  # less load than this and compaction has nothing to purge
    full_warmup = 0.2
    full_seconds = 11.0  # the issue's 5-simulated-second timeline
    preload_rows = 512
    catchup_cap = 30.0

    def build_cluster(self, seed: int) -> MyRaftReplicaset:
        return MyRaftReplicaset(
            paper_topology(follower_regions=3, learners=0),
            seed=seed,
            timing=sysbench_timing(myraft=True),
            raft_config=RaftConfig(log_cache_max_bytes=256 << 10),
        )

    def setup(self, seed: int, seconds: float, tracing=None) -> dict:
        state = super().setup(seed, seconds, tracing)
        cluster = state["cluster"]
        primary = cluster.primary_service()
        pad = "x" * self.mix.value_bytes
        for start in range(0, self.preload_rows, 64):
            rows = {pk: {"id": pk, "v": f"seed{pk}", "pad": pad} for pk in range(start, start + 64)}
            primary.submit_write(self.mix.table, rows)
        cluster.run(0.5)
        return state

    def warmup(self, state: dict) -> None:
        super().warmup(state)
        cluster, load = state["cluster"], state["measured"]
        origin = state["log"].measure_from
        # The issue's timeline (1.0 / 3.0 / 3.5 / 5.0 s) scaled to the load.
        cluster.loop.call_at(origin + 0.2 * load, self._outage, state)
        cluster.loop.call_at(origin + 0.6 * load, self._compact, state)
        cluster.loop.call_at(origin + 0.7 * load, self._heal, state)

    @staticmethod
    def _outage(state: dict) -> None:
        cluster = state["cluster"]
        cluster.net.isolate_region("region3")
        cluster.crash("region2-db1")

    @staticmethod
    def _compact(state: dict) -> None:
        primary = state["cluster"].primary_service()

        def rotate_then_compact():
            yield primary.flush_binary_logs()
            # The purge horizon is capped by the engine's applied index,
            # which trails the rotate entry when it commits; a beat later
            # the old file lies wholly below the horizon and is purged.
            yield 0.01
            primary.snapshot_and_compact()

        spawn(state["cluster"].loop, rotate_then_compact(), label="e2e-compaction")

    @staticmethod
    def _heal(state: dict) -> None:
        cluster = state["cluster"]
        cluster.net.heal_region("region3")
        cluster.restart("region2-db1")
        state["healed_at"] = cluster.loop.now
        state["mark"] = cluster.primary_service().mysql.engine.last_committed_opid.index

    def measure(self, state: dict):
        cluster = state["cluster"]
        for _more in super().measure(state):
            yield True
        # Load has stopped; run on until the last member holds (and, with
        # an engine, has applied) everything committed at heal time.
        deadline = cluster.loop.now + self.catchup_cap
        while not self._caught_up(state) and cluster.loop.now < deadline:
            cluster.run(0.01)
        state["caught_up_at"] = cluster.loop.now
        yield False

    @staticmethod
    def _caught_up(state: dict) -> bool:
        cluster, mark = state["cluster"], state["mark"]
        for service in cluster.services.values():
            if service.node.last_opid.index < mark:
                return False
        return all(
            service.mysql.engine.last_committed_opid.index >= mark
            for service in cluster.database_services()
        )

    def finish(self, state: dict) -> Outcome:
        outcome = state["outcome"]
        if not self._caught_up(state):
            outcome.violations.append(f"catch-up exceeded {self.catchup_cap} simulated seconds")
        outcome.sim["catchup_s"] = state["caught_up_at"] - state["healed_at"]
        return super().finish(state)


# -- failover drill -------------------------------------------------------------------


class FailoverDrill:
    """Table 2: independent dead-primary and graceful-promotion trials,
    each on a fresh 12-member cluster watched by a 20 ms scheduled prober."""

    name = "failover_drill"
    failovers_per_second = 3.2
    promotions_per_second = 0.4
    full_seconds = 31.25  # 100 failovers + 12 promotions
    probe_interval = 0.020
    victim = "region0-db1"
    # A request in flight when the fault hits was due just before it.
    slack = 0.05
    settle = 0.5  # seconds of unbroken acks that end a trial

    def build_cluster(self, seed: int) -> MyRaftReplicaset:
        cluster = MyRaftReplicaset(
            paper_topology(follower_regions=3, learners=0),
            seed=seed,
            timing=sysbench_timing(myraft=True),
        )
        cluster.bootstrap()
        return cluster

    def setup(self, seed: int, seconds: float, tracing=None) -> dict:
        rng = RngStream(seed).child(f"e2e/{self.name}")
        failovers = max(4, round(seconds * self.failovers_per_second))
        promotions = max(2, round(seconds * self.promotions_per_second))
        plan = [("failover", i, rng.child(f"failover{i}")) for i in range(failovers)]
        plan += [("promotion", i, rng.child(f"promotion{i}")) for i in range(promotions)]
        # Set-up builds the first trial's cluster; later trials build
        # theirs inside the timed region (it is part of a trial's cost).
        first = self.build_cluster(plan[0][2].seed)
        return {
            "plan": plan, "first": first, "tracing": tracing, "outcome": Outcome(),
            "failover_ms": [], "promotion_ms": [], "latencies": [], "acks": 0,
            "sim_seconds": 0.0, "engines": [], "open_trial": None,
        }

    def warmup(self, state: dict) -> None:
        """Nothing to warm: every trial starts from a fresh cluster."""

    def measure(self, state: dict):
        """One slice per trial: build, fault, settle. The trial's cluster
        is left in ``open_trial`` for ``after_slice``."""
        last = len(state["plan"]) - 1
        for number, (kind, _index, rng) in enumerate(state["plan"]):
            cluster = state.pop("first", None) or self.build_cluster(rng.seed)
            probe = ProbeLog()
            start_prober(cluster, probe, rng.child("prober"), self.probe_interval, COLOCATED)
            started = cluster.loop.now
            if kind == "failover":
                self._failover_trial(state, cluster, probe, rng)
            else:
                self._promotion_trial(state, cluster, probe, rng)
            state["open_trial"] = (cluster, probe, cluster.loop.now - started)
            yield number < last

    def _settle(self, cluster, probe: ProbeLog, fault_time: float, cap: float = 60.0) -> bool:
        """Run until service is stably back: ``settle`` seconds of acks
        since the last failed request. A freshly elected primary can be
        deposed again by a late candidate; that flap belongs to the fault
        and must be over before the trial's end state is checked."""
        deadline = fault_time + cap
        while cluster.loop.now < deadline:
            cluster.run(0.05)
            last_failure = max(probe.failure_dues, default=fault_time)
            streak = [t for t in probe.ack_times if t > max(last_failure, fault_time)]
            if streak and cluster.loop.now - min(streak) >= self.settle:
                return True
        return False

    def _failover_trial(self, state: dict, cluster, probe: ProbeLog, rng: RngStream) -> None:
        outcome, tracing = state["outcome"], state["tracing"]
        # Crash at a seeded phase of the 500 ms heartbeat schedule.
        cluster.run(1.0 + rng.child("phase").uniform(0.0, cluster.raft_config.heartbeat_interval))
        crash_time = cluster.loop.now
        started_before, won_before = election_counts(cluster)
        if tracing is not None:
            tracing.failover.arm(cluster.loop, crash_time)
        cluster.crash(self.victim)
        outcome.failovers += 1
        if not self._settle(cluster, probe, crash_time):
            outcome.violations.append(f"failover trial {outcome.failovers}: writes never came back")
            return
        started_after, won_after = election_counts(cluster)
        outcome.elections_started += started_after - started_before
        outcome.elections_won += won_after - won_before
        # Downtime: last ack before the crash → first ack after it.
        state["failover_ms"].append(probe.downtime_after(crash_time) * 1e3)
        outcome.failed += probe.failures_outside(
            crash_time - self.slack, cluster.loop.now - self.settle
        )
        if tracing is not None:
            split = tracing.failover.phases(min(t for t in probe.ack_times if t > crash_time))
            if split is not None:
                outcome.phases.append(split)

    def _promotion_trial(self, state: dict, cluster, probe: ProbeLog, rng: RngStream) -> None:
        cluster.run(1.0)
        target = f"region{rng.child('target').randint(1, 3)}-db1"
        started = cluster.loop.now
        transfer = cluster.transfer_leadership(target)
        if not self._settle(cluster, probe, started, cap=15.0) or not transfer.done() or transfer.failed():
            state["outcome"].violations.append(f"transfer to {target} did not complete")
            return
        # Downtime: the largest gap between acks around the hand-over.
        state["promotion_ms"].append(probe.largest_gap(started, cluster.loop.now) * 1e3)
        state["outcome"].failed += probe.failures_outside(
            started - self.slack, cluster.loop.now - self.settle
        )

    def after_slice(self, state: dict) -> None:
        """Stop the trial's prober, drain, and check its end state."""
        cluster, probe, sim_seconds = state["open_trial"]
        outcome = state["outcome"]
        probe.stop_at = cluster.loop.now
        counters_add(outcome.counters, snapshot_counters(cluster))
        # Drain in-flight probes; the last commit marker reaches the
        # replicas with the next heartbeat, so give it a few of those.
        for _ in range(8):
            cluster.run(0.25)
            if cluster.databases_converged():
                break
        outcome.attempted += probe.attempted
        outcome.refused += len(probe.failure_dues)
        state["acks"] += len(probe.ack_times)
        state["latencies"] += probe.latencies
        state["sim_seconds"] += sim_seconds
        state["engines"].append(sorted(cluster.engine_checksums().items()))
        primaries = writable_primaries(cluster)
        if len(primaries) != 1:
            outcome.violations.append(f"trial ended with writable primaries {primaries}")
            return
        table = cluster.server(primaries[0]).mysql.engine.table("probe")
        lost = sum(1 for probe_id in probe.acked_ids if table.get(probe_id) is None)
        if lost:
            outcome.violations.append(f"{lost} acknowledged probe writes lost in a trial")
        if not cluster.databases_converged():
            outcome.violations.append("databases_converged() is false after a trial")

    def finish(self, state: dict) -> Outcome:
        outcome = state["outcome"]
        outcome.txns = state["acks"]
        outcome.percentiles("write_commit", "us", state["latencies"], 1e6)
        outcome.percentiles("failover_downtime", "ms", state["failover_ms"], tail_name="tail", cap=90.0)
        if state["promotion_ms"]:
            outcome.sim["promotion_downtime_p50_ms"] = stats.median(state["promotion_ms"])
            outcome.samples["promotion_downtime_p50_ms"] = {
                "level": 50.0, "n": len(state["promotion_ms"]),
            }
        outcome.sim["sim_txn_per_s"] = state["acks"] / state["sim_seconds"]
        outcome.sim["cross_region_bytes_per_txn"] = (
            outcome.counters["xregion_bytes"] / max(1, state["acks"])
        )
        outcome.digest = make_digest(
            engines=state["engines"],
            counts=[outcome.attempted, outcome.refused, outcome.failed, state["acks"]],
            failover_ms=state["failover_ms"],
            promotion_ms=state["promotion_ms"],
            latencies=sorted(state["latencies"]),
            sim=outcome.sim,
        )
        return outcome


WORKLOADS = {w.name: w for w in (SysbenchWrite(), ProdMixed(), FailoverDrill(), OutageCatchup())}
