"""Pins what §4.2 exists to save: payload copies of an entry on the WAN.

The fixed-seed sysbench run of ``test_simulated_results_pin`` on the
20-member topology has five remote regions, so an entry must cross the
WAN five times — once per region's proxy — and the 12 members behind
those proxies must get it from their proxy. Direct delivery ships 17
copies. Deterministic (simulated bytes, fixed seed): a pin, not a
benchmark.
"""

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.raft.messages import AppendEntriesRequest
from repro.workload import WorkloadRunner, sysbench_timing, sysbench_workload

from tests.raft.harness import record_sends

SEED = 12
REMOTE_REGIONS = 5
MAX_WAN_COPIES_PER_WRITE = 6.0  # 5 proxies + slack for catch-up; 17 direct


def test_fixed_seed_sysbench_run_ships_one_payload_copy_per_region():
    cluster = MyRaftReplicaset(
        paper_topology(), seed=SEED, timing=sysbench_timing(myraft=True)
    )
    cluster.bootstrap()
    region = {name: host.region for name, host in cluster.hosts.items()}
    sent = record_sends(cluster.net)
    result = WorkloadRunner(cluster, sysbench_workload()).run(0.25)
    cluster.run(1.0)  # drain
    wan_entries = sum(
        len(m.entries) for src, dst, m in sent
        if isinstance(m, AppendEntriesRequest) and region[src] != region[dst]
    )

    assert result.errors == 0 and result.committed > 400
    copies = wan_entries / result.committed
    assert REMOTE_REGIONS <= copies <= MAX_WAN_COPIES_PER_WRITE
    assert cluster.databases_converged() and cluster.logs_prefix_equal()
    assert sum(s.node.metrics["proxy_degrades"] for s in cluster.services.values()) == 0
