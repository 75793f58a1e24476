"""Proxying tests (§4.2): region fan-out, PROXY_OP, reconstitution,
degrade, per-destination route-around, and the cross-region bandwidth
saving."""

from repro.cluster import paper_topology
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.membership import MembershipConfig
from repro.raft.messages import AppendEntriesRequest
from repro.raft.proxy import RegionProxyRouter, StaticProxyRouter

from tests.raft.harness import RaftRing, record_sends, voter, witness

PAPER_ENTRY_BYTES = 500  # §4.2.2's assumed average log entry size


def two_region_members():
    return [
        voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
        voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
    ]


DIRECT = StaticProxyRouter({})  # no chains: every member reached directly


def proxy_ring(seed=1, members=None, router=None, **kwargs):
    """A two-region ring; ``router=None`` is every node's default, the
    region tree."""
    return RaftRing(members or two_region_members(), seed=seed, router=router, **kwargs)


def entry_bearing(sent):
    return [
        (src, dst, m) for src, dst, m in sent
        if isinstance(m, AppendEntriesRequest) and m.entries
    ]


class TestRouting:
    def test_same_region_is_direct(self):
        router = RegionProxyRouter()
        config = MembershipConfig(tuple(two_region_members()))
        assert router.chain_for("db1", "lt1a", config) is None

    def test_remote_logtailer_routes_via_regional_database(self):
        router = RegionProxyRouter()
        config = MembershipConfig(tuple(two_region_members()))
        assert router.chain_for("db1", "lt2a", config) == ["db2"]

    def test_remote_database_is_direct(self):
        router = RegionProxyRouter()
        config = MembershipConfig(tuple(two_region_members()))
        assert router.chain_for("db1", "db2", config) is None

    def test_static_router(self):
        router = StaticProxyRouter({"x": ["p1", "p2"]})
        config = MembershipConfig(tuple(two_region_members()))
        assert router.chain_for("db1", "x", config) == ["p1", "p2"]
        assert router.chain_for("db1", "unrouted", config) is None


class TestProxiedReplication:
    def test_entries_reach_proxied_members(self):
        ring = proxy_ring()
        ring.bootstrap("db1")
        opid, fut = ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=2.0)
        assert fut.done() and not fut.failed()
        ring.run(2.0)
        for name in ("lt2a", "lt2b"):
            entry = ring.node(name).storage.entry(opid.index)
            assert entry is not None
            assert entry.payload == b"E" * PAPER_ENTRY_BYTES

    def test_proxy_forward_metrics(self):
        ring = proxy_ring()
        ring.bootstrap("db1")
        for i in range(5):
            ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.5)
        assert ring.node("db2").metrics["proxy_forwards"] > 0

    def test_cross_region_bytes_lower_with_proxying(self):
        results = {}
        for proxying in (False, True):
            ring = proxy_ring(seed=9, router=None if proxying else DIRECT)
            ring.bootstrap("db1")
            ring.run(1.0)
            ring.net.reset_accounting()
            for i in range(20):
                ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.2)
            results[proxying] = ring.net.cross_region_bytes()
        assert results[True] < results[False]
        # Three full cross-region payload streams collapse to one plus two
        # PROXY_OP metadata streams; expect a substantial cut.
        assert results[True] < 0.70 * results[False]

    def test_degrade_to_heartbeat_when_proxy_lacks_entry(self):
        # Hand the proxy a PROXY_OP for an entry it will never have; after
        # proxy_wait_timeout it must degrade the message to a heartbeat and
        # still forward it downstream (§4.2.1).
        from repro.raft.types import OpId

        ring = proxy_ring()
        ring.bootstrap("db1")
        ring.run(1.0)
        proxy = ring.node("db2")
        phantom = AppendEntriesRequest(
            term=proxy.current_term,
            leader="db1",
            prev_opid=proxy.last_opid,
            commit_opid=proxy.commit_opid,
            proxy_opids=(OpId(99, 99),),
            final_dest="lt2a",
        )
        proxy.handle_message("db1", phantom)
        ring.run(ring.config.proxy_wait_timeout + 0.1)
        assert proxy.metrics["proxy_degrades"] == 1
        # The degraded message still reached lt2a, and the response that
        # traveled back up through the proxy told the leader how far to
        # serve lt2a direct.
        ring.run(1.0)
        assert ring.node("db1").leader_state.peers["lt2a"].direct_until == 99

    def test_degraded_message_acts_as_heartbeat_downstream(self):
        from repro.raft.types import OpId

        ring = proxy_ring()
        ring.bootstrap("db1")
        ring.run(1.0)
        proxy = ring.node("db2")
        downstream = ring.node("lt2a")
        before = downstream.last_opid
        phantom = AppendEntriesRequest(
            term=proxy.current_term,
            leader="db1",
            prev_opid=before,
            commit_opid=proxy.commit_opid,
            proxy_opids=(OpId(99, 99),),
            final_dest="lt2a",
        )
        proxy.handle_message("db1", phantom)
        ring.run(1.0)
        # No data was delivered, log unchanged — pure heartbeat semantics.
        assert downstream.last_opid == before

    def test_route_around_unhealthy_proxy(self):
        ring = proxy_ring()
        ring.bootstrap("db1")
        ring.run(1.0)
        ring.net.block_link("db1", "db2")
        # After proxy_health_timeout the leader bypasses db2 and the
        # logtailers still get entries directly.
        ring.run(ring.config.proxy_health_timeout + 1.0)
        opid, fut = ring.commit_and_run(b"direct", seconds=2.0)
        assert fut.done() and not fut.failed()
        ring.run(2.0)
        for name in ("lt2a", "lt2b"):
            entry = ring.node(name).storage.entry(opid.index)
            assert entry is not None

    def test_proxy_wait_satisfied_by_late_local_append(self):
        # The PROXY_OP can arrive at the proxy before the proxy's own full
        # AppendEntries; the wait-then-forward path must deliver once the
        # local log catches up (§4.2.1's common case).
        ring = proxy_ring()
        ring.bootstrap("db1")
        ring.run(1.0)
        for i in range(10):
            ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.2)
        ring.run(2.0)
        # No degrades needed: everything reconstituted.
        assert ring.node("db2").metrics["proxy_forwards"] > 0
        assert ring.node("lt2a").last_opid == ring.node("db1").last_opid

    def test_votes_are_never_proxied(self):
        # Kill the leader; elections must succeed even if the would-be
        # proxy is also down (voting is peer-to-peer, §4.2.1).
        ring = proxy_ring(seed=3)
        ring.bootstrap("db1")
        ring.run(1.0)
        ring.host("db1").crash()
        new_leader = ring.wait_for_leader(exclude="db1")
        assert new_leader is not None


class TestRegionFanout:
    def test_one_write_costs_one_wan_payload_per_remote_region(self):
        members = paper_topology().members()
        ring = RaftRing(members, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
        leader = ring.bootstrap("region0-db1")
        ring.run(1.0)
        sent = record_sends(ring.net)
        opid, fut = ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=1.0)
        assert fut.done() and not fut.failed()
        region = {m.name: m.region for m in members}
        wan = [(src, dst, m) for src, dst, m in entry_bearing(sent) if region[src] != region[dst]]
        assert sorted(dst for _src, dst, _m in wan) == [f"region{i}-db1" for i in range(1, 6)]
        assert all(src == leader.name and m.fanout for src, _dst, m in wan)
        for member in members:
            entry = ring.node(member.name).storage.entry(opid.index)
            assert entry is not None and entry.payload == b"E" * PAPER_ENTRY_BYTES
        # No PROXY_OP, no degrade: nobody stood at another cursor.
        assert not [m for _s, _d, m in sent if isinstance(m, AppendEntriesRequest) and m.is_proxy_op]
        assert sum(n.metrics["proxy_degrades"] for n in ring.nodes.values()) == 0

    def test_follower_one_window_behind_its_proxy_gets_a_proxy_op_not_a_payload(self):
        ring = proxy_ring()
        ring.bootstrap("db1")
        ring.run(1.0)
        # The proxy's forward of one window is lost: lt2a falls a window
        # behind db2 while the leader believes it rode along.
        ring.net.block_link("db2", "lt2a")
        ring.commit_and_run(b"lost-on-the-last-hop", seconds=0.1)
        ring.net.unblock_link("db2", "lt2a")
        sent = record_sends(ring.net)
        opid, fut = ring.commit_and_run(b"next", seconds=0.24)  # < append_retry_interval
        assert fut.done() and not fut.failed()
        assert ring.node("lt2a").last_opid == ring.node("db1").last_opid
        to_lt2a = [m for _s, _d, m in sent if isinstance(m, AppendEntriesRequest) and m.final_dest == "lt2a"]
        assert any(m.is_proxy_op for m in to_lt2a)
        # Its entries crossed the WAN as 24-byte PROXY_OPs only: every
        # payload it received came out of db2's log.
        assert not [m for src, _d, m in entry_bearing(sent) if src == "db1" and m.final_dest == "lt2a"]
        assert ring.node("db2").metrics["proxy_degrades"] == 0

    def test_proxy_crash_mid_stream_serves_downstream_direct_then_returns(self):
        ring = proxy_ring()
        leader = ring.bootstrap("db1")
        ring.run(1.0)
        ring.host("db2").crash()
        opid, _fut = ring.commit_and_run(b"while-the-proxy-is-down", seconds=0.05)
        ring.run(ring.config.proxy_health_timeout)
        for name in ("lt2a", "lt2b"):
            assert ring.node(name).storage.entry(opid.index) is not None
        ring.host("db2").restart()
        ring.run(2.0)  # db2 catches up and acks again
        assert ring.node("db2").last_opid == leader.last_opid
        forwards = ring.node("db2").metrics["proxy_forwards"]
        sent = record_sends(ring.net)
        opid, _fut = ring.commit_and_run(b"back-through-the-proxy", seconds=1.0)
        assert ring.node("db2").metrics["proxy_forwards"] == forwards + 2
        assert sorted(dst for src, dst, _m in entry_bearing(sent) if src == "db1" and dst.endswith("2")) == ["db2"]
        for name in ("lt2a", "lt2b"):
            assert ring.node(name).storage.entry(opid.index) is not None


class TestRouteAround:
    def lagging_follower_ring(self):
        """db1 leads; lt2a sits behind proxy db2, whose log is compacted
        to start above where lt2a stopped."""
        members = two_region_members()[:5]  # db1 lt1a lt1b | db2 lt2a
        ring = RaftRing(members, router=StaticProxyRouter({"lt2a": ["db2"]}))
        ring.bootstrap("db1")
        for _ in range(4):
            ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.1)
        ring.host("lt2a").crash()
        for _ in range(30):
            ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.1)
        proxy = ring.node("db2")
        proxy.storage.purge_below(25)
        proxy.cache.clear()
        return ring

    def test_follower_behind_a_compacted_proxy_catches_up_without_a_degrade_loop(self):
        # Before, every PROXY_OP for lt2a degraded to a heartbeat at db2,
        # whose log can never serve it — forever, because db2 stayed
        # "healthy". Now whatever went silent is re-sent direct.
        ring = self.lagging_follower_ring()
        leader, proxy, follower = ring.node("db1"), ring.node("db2"), ring.node("lt2a")
        assert follower.storage.last_opid().index < proxy.storage.first_index()
        ring.host("lt2a").restart()
        ring.run(2 * ring.config.append_retry_interval)
        assert follower.last_opid == leader.last_opid
        assert proxy.metrics["proxy_degrades"] <= 2
        # Caught up, it is served through the proxy again.
        forwards = proxy.metrics["proxy_forwards"]
        opid, _fut = ring.commit_and_run(b"E" * PAPER_ENTRY_BYTES, seconds=0.5)
        assert follower.storage.entry(opid.index) is not None
        assert proxy.metrics["proxy_forwards"] == forwards + 1

    def test_purged_proxy_op_degrades_at_once_and_says_how_far(self):
        # A PROXY_OP below the proxy's first index can never be
        # reconstituted: no wait, and the heartbeat sent instead carries
        # the index through which the leader must serve lt2a itself.
        ring = self.lagging_follower_ring()
        leader, proxy, follower = ring.node("db1"), ring.node("db2"), ring.node("lt2a")
        ring.host("lt2a").restart()
        held = follower.last_opid
        sent = record_sends(ring.net)
        proxy.handle_message(
            "db1",
            AppendEntriesRequest(
                term=leader.current_term,
                leader="db1",
                prev_opid=held,
                commit_opid=held,
                proxy_opids=tuple(
                    leader.storage.entry(i).opid for i in range(held.index + 1, held.index + 9)
                ),
                final_dest="lt2a",
            ),
        )
        assert proxy.metrics["proxy_degrades"] == 1  # no proxy_wait_timeout first
        (_src, dst, heartbeat), = sent
        assert dst == "lt2a" and heartbeat.is_heartbeat
        assert heartbeat.degraded_through == proxy.storage.first_index() - 1 == 24
        ring.run(0.1)
        progress = leader.leader_state.peers["lt2a"]
        assert progress.direct_until >= 24
        ring.run(2 * ring.config.append_retry_interval)
        assert follower.last_opid == leader.last_opid
        assert proxy.metrics["proxy_degrades"] == 1

    def test_new_leader_never_proxies_through_the_crashed_old_primary(self):
        ring = proxy_ring(seed=3)
        ring.bootstrap("db1")
        ring.commit_and_run(b"before", seconds=1.0)
        ring.host("db1").crash()
        sent = record_sends(ring.net)
        leader = ring.wait_for_leader(exclude="db1")
        while leader.name != "db2":  # a witness leads first, then hands off
            ring.run(0.1)
            leader = ring.current_leader() or leader
        opid, fut = ring.commit_and_run(b"after", seconds=3.0)
        assert fut.done() and not fut.failed()
        for name in ("lt1a", "lt1b"):  # region r1's proxy would be db1
            assert ring.node(name).storage.entry(opid.index) is not None
        via_dead = [
            m for _s, dst, m in sent
            if isinstance(m, AppendEntriesRequest) and dst == "db1" and m.final_dest != "db1"
        ]
        assert via_dead == []
        assert not [m for _s, dst, m in sent if dst == "db1" and getattr(m, "fanout", ())]
