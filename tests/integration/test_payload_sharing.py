"""One copy of each payload per process.

Every member stores every payload (§3.1), and the simulator runs every
member in one process. Followers receive the leader's encoded bytes by
reference inside ``AppendEntriesRequest.entries``; the binlog files keep
that reference instead of copying it, and the storage index keeps one
slot per entry pointing at facts the payload's transaction already
carries.
"""

import tracemalloc

from repro.cluster import MyRaftReplicaset, paper_topology

STORAGE_FILES = ("mysql/binlog.py", "mysql/log_manager.py", "plugin/binlog_storage.py")
# Bytes the storage modules hold per stored entry per member: one list
# slot in the file, one in the index, and a member's share of the GTID
# each payload gets once per process — about 41 on this run (53 counting
# the facts tuple, which the NamedTuple constructor allocates outside
# these files). A private copy of each payload cost about 1,160.
MAX_STORAGE_BYTES_PER_ENTRY = 64


def _run_writes(writes: int, value_bytes: int, seed: int) -> MyRaftReplicaset:
    cluster = MyRaftReplicaset(paper_topology(follower_regions=1, learners=0), seed=seed)
    cluster.bootstrap()
    for pk in range(1, writes + 1):
        cluster.write("t", {pk: {"id": pk, "v": "x" * value_bytes}})
        cluster.run(0.005)
    cluster.run(1.0)
    return cluster


def _storages(cluster: MyRaftReplicaset) -> list:
    return [service.node.storage for service in cluster.services.values()]


def test_members_store_the_leaders_payload_objects():
    cluster = _run_writes(writes=36, value_bytes=20, seed=2)
    leader = cluster.primary_service().node
    assert leader.commit_index >= 36
    followers = [storage for storage in _storages(cluster) if storage is not leader.storage]
    assert len(followers) == 5
    for index in range(1, leader.commit_index + 1):
        payload = leader.storage.entry(index).payload
        for storage in followers:
            assert storage.entry(index).payload is payload, (index, storage)


def test_storage_bytes_per_stored_entry_stay_pinned():
    tracemalloc.start()
    try:
        cluster = _run_writes(writes=200, value_bytes=200, seed=3)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traces = snapshot.filter_traces([tracemalloc.Filter(True, f"*{f}") for f in STORAGE_FILES])
    held = sum(stat.size for stat in traces.statistics("filename"))
    stored = sum(s.last_opid().index - s.first_index() + 1 for s in _storages(cluster))
    assert stored >= 6 * 200
    assert held / stored <= MAX_STORAGE_BYTES_PER_ENTRY, held / stored
