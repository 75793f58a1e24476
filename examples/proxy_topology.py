#!/usr/bin/env python
"""Raft Proxying (§4.2): cross-region bandwidth, star vs tree.

Runs the same write stream over the paper's topology (five remote
regions, each with a database follower and two logtailers) twice — over
the region tree every ring routes through by default, and over a ring
built with a router that names no proxy (direct delivery) — and prints
the cross-region byte accounting. In the tree an entry crosses the WAN
once per region: the region's database follower appends it and forwards
it to the logtailers behind it (Figure 4); a member that has fallen to
another cursor is caught up by 24-byte PROXY_OPs from the proxy's log.

Run:  python examples/proxy_topology.py
"""

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.raft.proxy import StaticProxyRouter
from repro.workload.profiles import sysbench_timing


class StarReplicaset(MyRaftReplicaset):
    router = StaticProxyRouter({})  # no proxies: the leader reaches everyone itself


def measure(replicaset_class) -> tuple[int, int, int]:
    cluster = replicaset_class(
        paper_topology(follower_regions=5, learners=2),
        seed=5,
        timing=sysbench_timing(myraft=True),
        trace_capacity=5_000,
    )
    cluster.bootstrap()
    cluster.run(1.0)
    cluster.net.reset_accounting()
    payload = "x" * 280  # encoded transaction ≈ the paper's 500B entries
    for i in range(50):
        cluster.write("telemetry", {i: {"id": i, "v": payload}})
        cluster.run(0.05)
    cluster.run(3.0)
    forwards = sum(s.node.metrics["proxy_forwards"] for s in cluster.database_services())
    degrades = sum(s.node.metrics["proxy_degrades"] for s in cluster.database_services())
    return cluster.net.cross_region_bytes(), forwards, degrades


def main() -> None:
    star_bytes, _, _ = measure(StarReplicaset)
    tree_bytes, forwards, degrades = measure(MyRaftReplicaset)
    print("cross-region bytes for the same 50-transaction stream:")
    print(f"  direct delivery (star): {star_bytes:>10,}")
    print(f"  region tree (default):  {tree_bytes:>10,}")
    print(f"  savings: {(1 - tree_bytes / star_bytes) * 100:.1f}%")
    print(f"  proxy forwards: {forwards}, degrades-to-heartbeat: {degrades}")
    print("\npaper's claim: a PROXY_OP costs 2-5% of a vanilla connection at ~500B/entry")
    print("(here only stragglers get one; members at the proxy's cursor ride for free);")
    print("votes are never proxied, and the leader keeps all replication bookkeeping.")


if __name__ == "__main__":
    main()
