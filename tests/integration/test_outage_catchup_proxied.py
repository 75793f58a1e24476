"""The region tree under the fault mix that used to loop: a region
isolated and a replica crashed under load, the leader rotating and
compacting its log meanwhile, then heal.

With proxying merely switched on, a proxy whose log had been compacted
above its logtailers' cursors (they re-join by snapshot at an older
index) degraded every PROXY_OP for them to a heartbeat, and the leader
kept choosing it because it was "healthy": the ring never caught up.
Every live member must reach the heal-time commit index, with a number
of degrades that counts lagging peers, not time — and the region whose
database is the crashed replica must still be fed about one payload copy
per write (through whichever logtailer took the role), not one per
surviving member. Members that stop answering — the crashed database, the
isolated region — are sent empty probes (and, once the log is compacted
past them, snapshot offers), never a resend of entries.
"""

import pytest

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.raft.config import RaftConfig
from repro.raft.replication import APPEND_RETRY_INTERVAL
from repro.sim.coro import spawn
from repro.workload import WorkloadRunner, sysbench_timing, sysbench_workload

from tests.raft.harness import record_sends, wan_bytes_by_kind, wan_entries_into

LOAD = 1.5  # simulated seconds of sysbench load
CATCHUP_CAP = 5.0
# 0.89–1.16 on these seeds (2.55–2.62 with a fixed proxy; 1.15–1.28 while
# silent members were still resent full windows). Below 1.0, the database
# caught up by snapshot instead of by entries; at or just above it, one copy
# plus the windows lost with the database and the entries the new head is
# sent again after the probe's round trip. The rest is the compaction coin
# flip: on seeds 4 and 8 it purges past both logtailers' send cursors, each
# installs an image and is streamed privately until level (0.16 of a copy).
MAX_COPIES_INTO_CRASHED_DBS_REGION = 1.2


@pytest.mark.parametrize("seed", range(1, 9))
def test_every_member_reaches_the_heal_time_commit_index(seed):
    cluster = MyRaftReplicaset(
        paper_topology(follower_regions=3, learners=0),
        seed=seed,
        timing=sysbench_timing(myraft=True),
        raft_config=RaftConfig(log_cache_max_bytes=256 << 10),
    )
    primary = cluster.bootstrap()
    loop, origin, healed = cluster.loop, cluster.loop.now, {}
    sent = record_sends(cluster.net)

    def outage():
        cluster.net.isolate_region("region3")
        cluster.crash("region2-db1")
        healed["crash"] = (len(sent), primary.node.commit_index)

    def silenced():
        healed["silent"] = len(sent)

    def compact():
        def rotate_then_compact():
            yield primary.flush_binary_logs()
            yield 0.01  # the old file falls wholly below the purge horizon
            primary.snapshot_and_compact()

        spawn(loop, rotate_then_compact(), label="compaction")

    def heal():
        cluster.net.heal_region("region3")
        cluster.restart("region2-db1")
        healed["mark"] = primary.node.commit_index
        healed["heal"] = len(sent)

    loop.call_at(origin + 0.2 * LOAD, outage)
    # The windows in flight at the outage are written off a retry
    # interval later; from then until the heal, the dark members are
    # only probed.
    loop.call_at(origin + 0.2 * LOAD + 2 * APPEND_RETRY_INTERVAL, silenced)
    loop.call_at(origin + 0.6 * LOAD, compact)
    loop.call_at(origin + 0.7 * LOAD, heal)
    result = WorkloadRunner(cluster, sysbench_workload()).run(LOAD)
    assert result.errors == 0 and result.committed > 1000

    def behind():
        return [
            name for name, service in cluster.services.items()
            if service.node.last_opid.index < healed["mark"]
        ]

    deadline = loop.now + CATCHUP_CAP
    while behind() and loop.now < deadline:
        cluster.run(0.05)
    assert behind() == []
    first_sent, first_commit = healed["crash"]
    region = {name: host.region for name, host in cluster.hosts.items()}
    into_region2 = wan_entries_into(sent[first_sent:], region, "region2")
    copies = into_region2 / (primary.node.commit_index - first_commit)
    assert copies <= MAX_COPIES_INTO_CRASHED_DBS_REGION
    dark = {"region2-db1"} | {name for name in region if region[name] == "region3"}
    to_dark = wan_bytes_by_kind(
        [s for s in sent[healed["silent"]:healed["heal"]] if s[1] in dark], region
    )
    assert to_dark["probe"] + to_dark["snapshot"] > 0
    assert to_dark["fanout"] == to_dark["direct"] == to_dark["proxy_op"] == 0
    assert primary.storage.first_index() > 1  # the compaction did purge
    degrades = sum(s.node.metrics["proxy_degrades"] for s in cluster.services.values())
    assert degrades <= 12  # at most two per logtailer that re-joined by snapshot
    cluster.run(1.0)
    assert cluster.databases_converged() and cluster.logs_prefix_equal()
