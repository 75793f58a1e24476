"""§4.2.2: proxying's cross-region bandwidth saving and control overhead.

The paper's back-of-the-envelope claim: with ~500-byte log entries,
proxying to a remote logtailer costs 2–5% of vanilla Raft's resource
burden on a per-connection basis (the PROXY_OP metadata replaces the
payload). We measure it directly from the network's byte accounting:
identical write streams over the region tree every ring routes through
and over a ring whose injected router names no proxy (direct delivery).

Since the region fan-out, a member at its proxy's cursor rides on the
proxy's own append and costs the WAN nothing; PROXY_OPs — what the
2–5% figure prices — go only to members at another cursor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import MyRaftReplicaset, paper_topology
from repro.experiments.common import (
    PAPER_PROXY_ENTRY_BYTES,
    PAPER_PROXY_OVERHEAD_RANGE,
    format_table,
)
from repro.raft.messages import PER_ENTRY_OVERHEAD_BYTES, PROXY_OP_BYTES
from repro.raft.proxy import StaticProxyRouter
from repro.workload.profiles import sysbench_timing


class DirectReplicaset(MyRaftReplicaset):
    """The A/B baseline: every member is built with a router that names
    no proxy, so every entry goes to every member directly."""

    router = StaticProxyRouter({})


@dataclass
class ProxyBandwidthResult:
    writes: int
    entry_bytes: int
    vanilla_cross_region_bytes: int
    proxied_cross_region_bytes: int
    proxy_forwards: int
    proxy_degrades: int
    checksums_match: bool = True

    @property
    def savings_percent(self) -> float:
        return (1.0 - self.proxied_cross_region_bytes / self.vanilla_cross_region_bytes) * 100.0

    @property
    def per_connection_overhead(self) -> float:
        """PROXY_OP bytes relative to the full-payload stream on one
        connection — the paper's 2–5% per-connection figure. Computed
        per entry: RPC headers amortize across batched entries, so the
        steady-state stream cost is the per-entry wire cost."""
        full = PER_ENTRY_OVERHEAD_BYTES + self.entry_bytes
        return PROXY_OP_BYTES / full

    def format_report(self) -> str:
        rows = [
            ["vanilla (star)", self.vanilla_cross_region_bytes],
            ["proxied (tree)", self.proxied_cross_region_bytes],
        ]
        low, high = PAPER_PROXY_OVERHEAD_RANGE
        lines = [
            f"§4.2.2 proxy bandwidth: {self.writes} writes, "
            f"~{self.entry_bytes}B entries (paper assumes {PAPER_PROXY_ENTRY_BYTES}B)",
            format_table(["topology", "cross_region_bytes"], rows),
            f"cross-region savings: {self.savings_percent:.1f}%",
            f"per-connection PROXY_OP overhead: {self.per_connection_overhead * 100:.1f}% "
            f"of vanilla (paper: {low * 100:.0f}-{high * 100:.0f}%)",
            f"proxy forwards: {self.proxy_forwards}, degrades: {self.proxy_degrades}",
            f"engine checksums identical with and without a router: {self.checksums_match}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "writes": self.writes,
            "entry_bytes": self.entry_bytes,
            "direct_cross_region_bytes": self.vanilla_cross_region_bytes,
            "tree_cross_region_bytes": self.proxied_cross_region_bytes,
            "savings_percent": self.savings_percent,
            "per_connection_overhead": self.per_connection_overhead,
            "proxy_forwards": self.proxy_forwards,
            "proxy_degrades": self.proxy_degrades,
            "checksums_match": self.checksums_match,
        }


def _measure(proxying: bool, writes: int, payload_bytes: int, seed: int):
    topology = paper_topology(follower_regions=5, learners=2)
    cluster = (MyRaftReplicaset if proxying else DirectReplicaset)(
        topology,
        seed=seed,
        timing=sysbench_timing(myraft=True),
        trace_capacity=5_000,
    )
    cluster.bootstrap()
    cluster.run(1.0)
    cluster.net.reset_accounting()
    value = "x" * payload_bytes
    for i in range(writes):
        cluster.write("bw", {i: {"id": i, "v": value}})
        cluster.run(0.05)
    cluster.run(3.0)  # replication drains
    return cluster


def run_proxy_bandwidth(
    writes: int = 60, payload_bytes: int = 280, seed: int = 5
) -> ProxyBandwidthResult:
    """A/B the same write stream with and without the region tree.

    ``payload_bytes`` is sized so an encoded transaction lands near the
    paper's ~500-byte average log entry.
    """
    vanilla = _measure(False, writes, payload_bytes, seed)
    proxied = _measure(True, writes, payload_bytes, seed)
    # Observed entry size, from the primary's log.
    storage = proxied.server("region0-db1").storage
    entry = storage.entry(storage.last_opid().index)
    forwards = sum(
        s.node.metrics["proxy_forwards"] for s in proxied.database_services()
    )
    degrades = sum(
        s.node.metrics["proxy_degrades"] for s in proxied.database_services()
    )
    return ProxyBandwidthResult(
        writes=writes,
        entry_bytes=entry.size_bytes,
        vanilla_cross_region_bytes=vanilla.net.cross_region_bytes(),
        proxied_cross_region_bytes=proxied.net.cross_region_bytes(),
        proxy_forwards=forwards,
        proxy_degrades=degrades,
        checksums_match=(
            vanilla.databases_converged()
            and proxied.databases_converged()
            and vanilla.engine_checksums() == proxied.engine_checksums()
        ),
    )
