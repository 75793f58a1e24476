"""One measurement of one workload, in this process.

``cli`` runs this in a fresh subprocess per repeat (back-to-back runs in
one interpreter drift by ~20 %; fresh processes hold within a few
percent). The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import gc
import heapq
import resource
import time
from contextlib import nullcontext
from typing import Any

from benchmarks.e2e import ledger, stats
from benchmarks.e2e.spans import CLIENT_LAYER, LAYERS, ROOT, UNATTRIBUTED, SpanRecorder
from benchmarks.e2e.workloads import WORKLOADS, Outcome

# Workloads on which a subsystem must do real work; on the others its
# entry points must never be called (asserted in the traced run).
USES_READS = {"prod_mixed"}
USES_SNAPSHOT = {"outage_catchup"}
# Client-visible simulated-clock numbers only some workloads have; the
# driver wants every metric from every workload, so they read 0 elsewhere.
WORKLOAD_SPECIFIC = (
    "read_p50_us", "read_p99_us", "failover_downtime_p50_ms", "failover_downtime_tail_ms",
    "promotion_downtime_p50_ms", "catchup_s",
)


class Tracing:
    """The traced run's recorder and simulated-time observers."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        ledger.install(self.recorder)
        self.stages = ledger.CommitStages(self.recorder)
        self.reads = ledger.ReadWaits(self.recorder)
        self.failover = ledger.FailoverPhases(self.recorder)

    def set_measure_from(self, when: float) -> None:
        self.stages.measure_from = when
        self.reads.measure_from = when


class HostSpeed:
    """How fast this host runs Python right now, as standard seconds per
    measured second.

    Neighbours on the same hardware move this box's speed by some +-10 %
    over tens of seconds, so the three sequential repeats of a run share
    a phase and no median removes it: ten fresh processes of
    ``outage_catchup`` at the driver's size read 4.74-5.74 raw CPU-seconds
    (quartile spread 10.3 % of the median); scaled by this class the same
    ten read 5.10-5.31 (2.8 %).

    So every child times a fixed pure-Python kernel -- heap, dict, tuple
    and generator traffic like the simulator's, but none of its code, so
    no change under ``src/`` can move it -- in short chunks *between* the
    slices of the timed region, and reports host-clock times in standard
    seconds: seconds on a host that runs one chunk in ``STANDARD_CHUNK_S``
    (this box when quiet). ``factor()`` is saved beside them, so a raw
    reading is the reported one divided by it.
    """

    ROUNDS = 60_000
    STANDARD_CHUNK_S = 0.050

    def __init__(self) -> None:
        self.chunks = 0
        self.cpu_s = 0.0

    def sample(self) -> None:
        def counter():
            value = 0
            while True:
                value = (yield value) + 1

        stepper = counter()
        next(stepper)
        heap: list = []
        table: dict = {}
        total = 0
        # The kernel allocates tuples; with the collector on, it would now
        # and then pay for a full pass over the *workload's* heap (140 ms
        # against a 50 ms chunk on a 270 MB heap) and read as a slow host.
        gc.disable()
        try:
            started = time.process_time()
            for i in range(self.ROUNDS):
                heapq.heappush(heap, ((i * 7919) % 10007, i))
                if i & 1:
                    total += heapq.heappop(heap)[1]
                table[i % 4096] = (i, total)
                total += stepper.send(i) & 3
            self.cpu_s += time.process_time() - started
        finally:
            gc.enable()
        self.chunks += 1

    def factor(self) -> float:
        return self.STANDARD_CHUNK_S * self.chunks / self.cpu_s


def run_once(workload_name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Set up, warm up, measure and verify one workload. ``started`` is
    the ``perf_counter`` reading taken before ``repro`` was imported, so
    ``setup_s`` covers import + build + bootstrap + preload."""
    workload = WORKLOADS[workload_name]
    tracing = Tracing() if trace else None
    state = workload.setup(seed, seconds, tracing)
    setup_s = time.perf_counter() - started
    gc.collect()
    gc.freeze()
    workload.warmup(state)
    speed = HostSpeed()
    speed.sample()
    cpu_s = 0.0
    slices = workload.measure(state)
    more = True
    while more:
        begun = time.process_time()
        with tracing.recorder.span(ROOT) if tracing is not None else nullcontext():
            more = next(slices)
        cpu_s += time.process_time() - begun
        workload.after_slice(state)
        speed.sample()
    cpu_s *= speed.factor()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracing is not None:
        tracing.recorder.uninstall()
    outcome = workload.finish(state)
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "sim": outcome.sim,
        "samples": outcome.samples,
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "refused": outcome.refused,
        "txns": outcome.txns,
        "events": outcome.counters["events"],
        # Times in standard seconds (see HostSpeed); raw = value / host_speed.
        "host": {
            "cpu_s": cpu_s,
            "setup_s": setup_s * speed.factor(),
            "peak_rss_mb": peak_rss_mb,
            "txn_per_cpu_s": outcome.txns / cpu_s,
        },
        "host_speed": speed.factor(),
        "layers": layer_metrics(workload_name, outcome, tracing, speed.factor()),
        "violations": outcome.violations,
    }
    if tracing is not None:
        result["span_totals"] = tracing.recorder.totals
        result["spans"] = tracing.recorder.spans[:2000]
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(values: list[float], scale: float) -> float:
    return stats.median(values) * scale if values else 0.0


def layer_metrics(workload_name: str, outcome: Outcome, tracing: Tracing | None,
                  host_speed: float) -> dict[str, Any]:
    """Every per-layer metric except the two that need the untraced CPU
    time (``cli`` adds ``sim.loop.events_per_cpu_s`` and
    ``trace.overhead_frac``). Counts are exact and identical with tracing
    on or off; ``self_us`` numbers (standard microseconds, like every
    host time), call counts of entry points without a public counter, and
    the stage/phase splits exist only when traced."""
    c, txns, reads = outcome.counters, outcome.txns, outcome.reads
    sim_seconds = c["sim_now"]
    m: dict[str, Any] = {
        "sim.loop.events_per_txn": _ratio(c["events"], txns),
        "sim.loop.timers_cancelled_frac": _ratio(c["timers_cancelled"], c["timers"]),
        "sim.net.msgs_per_txn": _ratio(c["net_msgs"], txns),
        "sim.net.bytes_per_txn": _ratio(c["net_bytes"], txns),
        "mysql.pipeline.group_size_mean": _ratio(c["pipeline_txns"], c["pipeline_groups"]),
        "mysql.applier.applied_per_txn": _ratio(c["applied"], txns),
        "mysql.applier.lag_peak_entries": outcome.lag_peak,
        "raft.propose.batch_mean": _ratio(c["proposals"], c["proposal_batches"]),
        "raft.append.entries_mean": _ratio(c["append_entries"], c["appends"]),
        "raft.replication_rounds_per_txn": _ratio(c["replication_rounds"], txns),
        "raft.heartbeats_suppressed_per_s": _ratio(c["heartbeats_suppressed"], sim_seconds),
        "raft.inflight_hwm": c["inflight_hwm"],
        "raft.log_cache.hit_rate": _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "raft.elections_per_failover": _ratio(outcome.elections_started, outcome.failovers),
        "raft.elections_no_winner_frac": (
            1.0 - _ratio(outcome.elections_won, outcome.elections_started)
            if outcome.elections_started else 0.0
        ),
        "reads.rounds_per_read": _ratio(c["read_probe_rounds"], reads),
        "snapshot.bytes_sent": c["snapshot_bytes"],
        "snapshot.chunks_deduped_frac": _ratio(
            c["snapshot_chunks_deduped"], c["snapshot_chunks"] + c["snapshot_chunks_deduped"]
        ),
        "snapshot.delta_installs": c["snapshot_delta_installs"],
        "failed_ops_frac": _ratio(outcome.refused, outcome.attempted),
    }
    for name in WORKLOAD_SPECIFIC:
        m[name] = outcome.sim.get(name, 0.0)
    if tracing is None:
        return m
    rec = tracing.recorder
    calls = rec.calls
    self_ns = rec.self_ns_by_layer()
    root_ns = rec.root_ns()
    self_us = {layer: ns / 1e3 * host_speed for layer, ns in self_ns.items()}
    for layer in LAYERS:
        if layer not in (UNATTRIBUTED, "reads", "snapshot"):
            m[f"{layer}.self_us_per_txn"] = _ratio(self_us[layer], txns)
    m.update({
        "reads.self_us_per_read": _ratio(self_us["reads"], reads),
        "snapshot.self_us": self_us["snapshot"],
        "trace.unattributed_frac": _ratio(self_ns[UNATTRIBUTED], root_ns),
        "sim.net.coalesced_frac": _ratio(c["net_coalesced"], calls("sim.net/send")),
        "mysql.codec.encodes_per_txn": _ratio(calls("mysql.codec/encode_events"), txns),
        "mysql.codec.decodes_per_txn": _ratio(calls("mysql.codec/decode"), txns),
        "mysql.engine.commits_per_txn": _ratio(calls("mysql.engine/commit"), txns),
        "raft.handle.calls_per_txn": _ratio(calls("raft.handle/handle_message"), txns),
        "plugin.log_storage.appends_per_txn": _ratio(calls("plugin.log_storage/append"), txns),
        "plugin.log_storage.entry_reads_per_txn": _ratio(calls("plugin.log_storage/entry"), txns),
        "flexiraft.quorum_checks_per_txn": _ratio(
            calls("flexiraft/data_quorum") + calls("flexiraft/election_quorum"), txns
        ),
        "mysql.pipeline.stage_flush_us_p50": _p50(tracing.stages.flush, 1e6),
        "mysql.pipeline.stage_consensus_us_p50": _p50(tracing.stages.consensus, 1e6),
        "mysql.pipeline.stage_engine_us_p50": _p50(tracing.stages.engine, 1e6),
        "reads.wait_us_p50": _p50(tracing.reads.waits, 1e6),
    })
    for index, phase in enumerate(("detect", "elect", "promote", "first_write")):
        m[f"raft.failover.{phase}_ms_p50"] = _p50([split[index] for split in outcome.phases], 1e3)

    # Ledger invariants: a failure here fails the run.
    attributed = sum(self_ns.values())
    if abs(attributed - root_ns) > 0.01 * root_ns:
        outcome.violations.append(f"layer self-times sum to {attributed} ns, root span is {root_ns} ns")
    if self_ns[CLIENT_LAYER] >= 0.10 * root_ns:
        outcome.violations.append("the load generator's self time is 10 % of the timed region or more")
    if not calls("raft.tick/dispatch") or not calls(f"{CLIENT_LAYER}/dispatch"):
        outcome.violations.append("dispatch classification saw no Raft timer or no client coroutine step")
    for subsystem, names, users in (
        # keepalive and fail_all are housekeeping every node runs in every mode.
        ("reads", ("request_read_index", "acquire_read_index", "on_ack"), USES_READS),
        ("snapshot", ("handle_offer", "handle_chunk", "ship_to", "handle_response"), USES_SNAPSHOT),
    ):
        used = sum(calls(f"{subsystem}/{name}") for name in names)
        if (used > 0) != (workload_name in users):
            outcome.violations.append(f"{subsystem}.* entry points were called {used} times")
    return m
