"""Pins what a fixed-seed run *simulates*, and what it may cost in events.

Host-side optimisations (the loop's heap entries, one loop event per
coroutine sleep, one suspension per applied transaction, the decode
table) must not move a single simulated timestamp, RNG draw or replicated
byte. The values below were recorded before those optimisations and were
reproduced unchanged after them; a later change that re-adds a hop or
perturbs timing fails here before it shows up as a benchmark digest
mismatch. A deliberate change to the simulated model re-records them.

Re-recorded once since, for a change that *is* one to the simulated
model: cross-region entries travel the §4.2 region tree (one WAN message
per region, forwarded in-region by the proxy), which moves the message
schedule and with it the order of the network's latency draws — 441
writes became 440 and every timestamp shifted. Replicated bytes per
entry, engine and log contents per write are what they were.

Re-recorded a second time when the leader's liveness signal for a peer
became one bit, "answering", that every peer of a new term starts with
(DESIGN.md §15, rule 2). The bootstrap leader's first round used to go
direct to every member, because nobody had acked the term yet; now the
members behind each region's database ride on its append from the first
round. That moves the message schedule again: 440 writes became 441 and
every timestamp shifted. Replicated bytes per entry are what they were.

Re-recorded a third time when a region's head began to fold its riders'
acks into its own (DESIGN.md §15, rule 1): a rider acks its head over
the LAN, and the head's ack, held until its riders have answered, crosses
the WAN once for the region. The message count is unchanged — the fold
replaces the head's own ack — but the acks travel other links, so the
latency draws move once more: still 441 writes, every timestamp shifted,
and with the clients interleaved differently the engine and log checksums
moved too. Replicated bytes per entry are what they were.
"""

from dataclasses import replace

import pytest

from repro.check import SCENARIOS, run_once
from repro.cluster import MyRaftReplicaset, paper_topology
from repro.sim.loop import EventLoop
from repro.workload import WorkloadRunner, sysbench_timing, sysbench_workload

SEED = 12
COMMITTED = 441
LAST_PRIMARY_COMMIT_AT = 0.30033516895919515
ENGINE_CHECKSUM = 2168291313
LOG_CHECKSUM = "154397ba0efc78fded706cc3648da96619f457973438b2b9458329fe8dd428e9"
# 43.6 today on the 20-member topology (110 before the optimisations;
# the region tree moves sends from the leader to the proxies, it adds
# none); the head-room is for idle heartbeats, not for another hop per
# write.
MAX_EVENTS_PER_COMMITTED_WRITE = 52


def test_fixed_seed_sysbench_run_is_bit_identical_and_cheap():
    cluster = MyRaftReplicaset(
        paper_topology(), seed=SEED, timing=sysbench_timing(myraft=True)
    )
    primary = cluster.bootstrap()
    engine = primary.mysql.engine
    commit_times = []
    engine_commit = engine.commit

    def timed_commit(txn):
        commit_times.append(cluster.loop.now)
        engine_commit(txn)

    engine.commit = timed_commit
    events_before = cluster.loop.events_processed

    result = WorkloadRunner(cluster, sysbench_workload()).run(0.25)
    cluster.run(1.0)  # drain: every replica applies the tail
    events = cluster.loop.events_processed - events_before

    assert (result.committed, result.errors) == (COMMITTED, 0)
    assert commit_times[-1] == LAST_PRIMARY_COMMIT_AT  # exact float
    assert cluster.databases_converged() and cluster.logs_prefix_equal()
    assert engine.checksum() == ENGINE_CHECKSUM
    assert primary.mysql.log_manager.content_checksum() == LOG_CHECKSUM
    assert events / result.committed <= MAX_EVENTS_PER_COMMITTED_WRITE


# Fault paths: two short model-check runs whose faults land on the
# primary while writes are in its commit pipeline — a stop-the-world
# pause (every pending step defers to the resume instant) and a crash
# loop (a crashed incarnation's pending steps never run). Recorded before
# the pipeline's stages became loop callbacks and reproduced unchanged
# after. The outcome digest pins what was simulated; the loop's fired and
# scheduled event counts pin the schedule itself, so a host-cost change
# that adds, drops or reorders a step on a fault path fails here.
FAULT_PATH_PINS = {
    ("pause-storm", 2): (
        "6cea31f9bcaff454da1382c893f20cf51e6f22890ecce4ccdd93d3443ce9c7f0", 6510, 6556,
    ),
    ("leader-crash-loop", 3): (
        "677a4096eaa0c802194bf77586de240d4c605af5ea50b8c1c0eec85c840a470a", 6368, 6418,
    ),
}


@pytest.mark.parametrize("scenario,seed", sorted(FAULT_PATH_PINS))
def test_fault_path_runs_are_bit_identical(monkeypatch, scenario, seed):
    loops = []
    init = EventLoop.__init__

    def recording_init(self):
        init(self)
        loops.append(self)

    monkeypatch.setattr(EventLoop, "__init__", recording_init)
    outcome = run_once(replace(SCENARIOS[scenario], duration=8.0, settle=4.0), seed)
    kinds = {kind for _time, kind, target, _other in outcome.fault_events if target == "region0-db1"}
    assert kinds >= ({"pause", "resume"} if scenario == "pause-storm" else {"crash", "restart"})
    stats = loops[-1].stats()
    assert (outcome.digest(), stats["events_processed"], stats["timers_scheduled"]) == (
        FAULT_PATH_PINS[scenario, seed]
    )
