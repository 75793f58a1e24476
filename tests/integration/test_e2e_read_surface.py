"""What the end-to-end benchmark reads of the program, checked in tier-1.

``benchmarks/e2e`` patches its traced entry points with ``vars(cls)[name]``
and flattens ``RaftNode.stats()`` into its counters. A method moved to a
base class or a unit, or a stats key renamed, would otherwise fail only
the benchmark's own CI step. These tests read the benchmark's modules
and change nothing in them.
"""

import importlib

import pytest

from benchmarks.e2e.ledger import ENTRY_POINTS
from benchmarks.e2e.workloads import snapshot_counters
from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec


@pytest.mark.parametrize(
    "module, owner, attribute",
    [(module, owner, attribute) for module, owner, attribute, _span in ENTRY_POINTS],
    ids=[f"{owner or module}.{attribute}" for module, owner, attribute, _span in ENTRY_POINTS],
)
def test_every_traced_entry_point_is_defined_on_its_owner(module, owner, attribute):
    namespace = importlib.import_module(module)
    if owner is not None:
        namespace = vars(namespace)[owner]
    # The recorder patches ``vars(owner)[attribute]``: inherited or
    # delegated names are not there.
    assert attribute in vars(namespace)


def test_stats_carry_every_key_the_counters_read():
    cluster = MyRaftReplicaset(
        ReplicaSetSpec(
            "surface",
            (
                RegionSpec("region0", databases=1, logtailers=2),
                RegionSpec("region1", databases=1, logtailers=2),
            ),
        ),
        seed=3,
    )
    cluster.bootstrap()
    for i in range(3):
        cluster.write_and_run("inv", {i: {"id": i}}, seconds=0.3)
    counters = snapshot_counters(cluster)  # a missing key raises here
    assert counters["proposals"] >= 3 and counters["appends"] > 0
    for service in cluster.database_services():
        stats = service.node.stats()
        assert {"hits", "misses"} <= stats["cache"].keys()
        assert {"entries_per_append", "heartbeats_suppressed", "inflight_hwm"} <= (
            stats["write_path"].keys()
        )
        # snapshot_counters reads these with .get(), so their absence
        # would read as zero instead of failing.
        assert {"bytes_sent", "chunks_sent", "chunks_deduped"} <= stats["snapshot"]["shipper"].keys()
        assert {"delta_installs", "installs"} <= stats["snapshot"]["installer"].keys()
