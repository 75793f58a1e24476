"""Proxying tests (§4.2): region fan-out, PROXY_OP, reconstitution,
degrade, per-destination route-around, the head that follows health and
progress, and the cross-region bandwidth saving."""

from repro.cluster import paper_topology
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.membership import MembershipConfig
from repro.raft.messages import AppendEntriesRequest
from repro.raft.proxy import RegionProxyRouter, RouteTable, StaticProxyRouter
from repro.raft.replication import FlowControl, PeerProgress

from tests.raft.harness import RaftRing, record_sends, voter, witness

PAPER_ENTRY_BYTES = 500  # §4.2.2's assumed average log entry size


def two_region_members():
    return [
        voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
        voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
    ]


DIRECT = StaticProxyRouter({})  # no chains: every member reached directly
FLOW = FlowControl(max_inflight_windows=4, window_min=8, window_max=64)


def proxy_ring(seed=1, members=None, router=None, **kwargs):
    """A two-region ring; ``router=None`` is every node's default, the
    region tree."""
    return RaftRing(members or two_region_members(), seed=seed, router=router, **kwargs)


def entry_bearing(sent):
    return [
        (src, dst, m) for src, dst, m in sent
        if isinstance(m, AppendEntriesRequest) and m.entries
    ]


def write_stream(ring, seconds, every=0.01):
    """One proposal every ``every`` seconds; returns their indexes."""
    indexes = []
    deadline = ring.loop.now + seconds
    while ring.loop.now < deadline - 1e-9:
        opid, _future = ring.propose_on_leader(b"E" * PAPER_ENTRY_BYTES)
        indexes.append(opid.index)
        ring.run(every)
    return indexes


def payload_into(sent, leader, members):
    """What the leader's entry-bearing appends to ``members`` added up to:
    ``({(dst, fanout), ...}, entries shipped)``."""
    messages = [(dst, m) for src, dst, m in entry_bearing(sent) if src == leader and dst in members]
    return {(dst, m.fanout) for dst, m in messages}, sum(len(m.entries) for _dst, m in messages)


def head_moves(ring, since=0.0):
    """``(head, reason)`` of every ``raft.region_head`` event from ``since``."""
    return [
        (r.get("head"), r.get("reason"))
        for r in ring.tracer.of_kind("raft.region_head") if r.time >= since
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


class TestRouteTable:
    """The head rule as a function of the leader's PeerProgress alone."""

    def table(self):
        config = MembershipConfig(tuple(two_region_members()))
        table = RouteTable("db1", config, RegionProxyRouter())
        peers = {m.name: PeerProgress(next_index=11, flow=FLOW, match_index=10) for m in config.peers_of("db1")}
        return table, peers

    def review(self, table, peers, unhealthy=()):
        return table.review_heads(peers, lambda name: name not in unhealthy)

    def test_healthy_ring_is_the_routers_tree(self):
        table, peers = self.table()
        assert self.review(table, peers) == []
        assert table.chains == {"lt2a": ("db2",), "lt2b": ("db2",)}
        assert table.behind == {"db2": ["lt2a", "lt2b"]}
        assert table.groups == {"db2": ("db2", "lt2a", "lt2b")} and table.acting == {}

    def test_silent_head_hands_over_to_the_most_advanced_member(self):
        table, peers = self.table()
        peers["db2"].direct_until = 14  # its windows went silent
        peers["lt2b"].last_sent_index = 12
        assert self.review(table, peers) == [("db2", "lt2b", "silent")]
        assert table.chains == {"db2": ("lt2b",), "lt2a": ("lt2b",)}
        assert table.behind == {"lt2b": ["db2", "lt2a"]}
        assert self.review(table, peers) == []  # sticky: nothing new, nothing moves

    def test_ties_go_by_membership_order_and_nobody_eligible_moves_nothing(self):
        table, peers = self.table()
        peers["db2"].direct_until = 14
        assert self.review(table, peers, unhealthy={"lt2a", "lt2b"}) == []
        peers["lt2a"].direct_until = peers["lt2b"].direct_until = 14  # a silent region
        assert self.review(table, peers) == [] and table.acting == {}
        peers["lt2a"].direct_until = peers["lt2b"].direct_until = 0
        assert self.review(table, peers) == [("db2", "lt2a", "silent")]

    def test_a_preferred_head_is_not_unseated_for_being_unproven(self):
        # A new leader's first round: nobody has acked yet.
        table, peers = self.table()
        assert self.review(table, peers, unhealthy={"db2"}) == []

    def test_acting_head_that_stops_acking_loses_the_role(self):
        table, peers = self.table()
        peers["db2"].direct_until = 14
        self.review(table, peers)
        assert table.acting == {"db2": "lt2a"}
        assert self.review(table, peers, unhealthy={"lt2a", "db2"}) == [("db2", "lt2b", "unhealthy")]

    def test_preferred_member_takes_the_role_back_once_level(self):
        table, peers = self.table()
        peers["db2"].direct_until = 14
        peers["lt2a"].match_index = peers["lt2a"].last_sent_index = 40
        self.review(table, peers)
        peers["db2"].match_index = 14  # back, acking, but far behind
        assert self.review(table, peers) == [] and table.acting == {"db2": "lt2a"}
        peers["db2"].last_sent_index = 40  # rode level with the acting head
        assert self.review(table, peers) == [("db2", "db2", "level")]
        assert table.acting == {} and table.behind == {"db2": ["lt2a", "lt2b"]}


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


WAN_RTT = 0.060  # the harness ring: 30 ms one way between regions


class TestHeadFollowsHealth:
    """DESIGN.md §15 rule 4: a region is fed through its most advanced
    live member, and its database takes the role back once level."""

    def streaming_ring(self, **kwargs):
        # Single-region-dynamic: commits need no ack from region r2, so a
        # write stream keeps committing whatever happens there.
        ring = proxy_ring(policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC), **kwargs)
        leader = ring.bootstrap("db1")
        ring.run(1.0)
        write_stream(ring, 0.2)
        return ring, leader

    def test_crashed_proxy_hands_its_group_to_a_member_behind_it(self):
        ring, leader = self.streaming_ring()
        every, config = 0.01, ring.config
        ring.host("db2").crash()
        crashed = ring.loop.now
        # The in-flight windows fill and go silent, the retry serves both
        # logtailers direct, and the first ack back makes its sender head.
        write_stream(ring, config.max_inflight_windows * every + config.append_retry_interval + WAN_RTT + every)
        assert head_moves(ring) == [("lt2a", "silent")]
        assert leader.stats()["proxy"]["acting_heads"] == {"db2": "lt2a"}
        assert leader.metrics["proxy_reroots"] == 1
        write_stream(ring, 2 * WAN_RTT)  # lt2b converges on lt2a's cursor
        sent = record_sends(ring.net)
        indexes = write_stream(ring, 0.5)
        ring.run(WAN_RTT)
        # One payload copy per write enters the region's live members
        # (the parent: one each), and lt2b's comes out of lt2a's message.
        assert payload_into(sent, "db1", ("lt2a", "lt2b")) == ({("lt2a", ("lt2b",))}, len(indexes))
        assert ring.node("lt2b").last_opid.index >= indexes[-1]
        assert ring.loop.now - crashed < config.proxy_health_timeout  # no timer involved
        assert sum(n.metrics["proxy_degrades"] for n in ring.nodes.values()) == 0

    def test_restarted_proxy_catches_up_from_the_acting_head_then_takes_the_role_back(self):
        ring, leader = self.streaming_ring()
        ring.host("db2").crash()
        write_stream(ring, 2.0, every=0.004)  # ~500 entries: far behind
        gap = leader.last_opid.index - ring.node("db2").last_opid.index
        assert gap > 400 and head_moves(ring) == [("lt2a", "silent")]
        ring.host("db2").restart()
        restarted = ring.loop.now
        sent = record_sends(ring.net)
        write_stream(ring, 1.0)
        assert head_moves(ring, restarted) == [("db2", "level")]
        assert leader.stats()["proxy"]["acting_heads"] == {}
        assert ring.node("db2").last_opid.index >= leader.last_opid.index - 4
        appends = [(src, dst, m) for src, dst, m in sent if isinstance(m, AppendEntriesRequest)]
        own_payload = [
            i for i, (src, dst, m) in enumerate(appends)
            if src == "db1" and dst == "db2" and m.entries and not m.fanout
        ]
        proxy_ops = [
            i for i, (src, _dst, m) in enumerate(appends)
            if src == "db1" and m.is_proxy_op and m.final_dest == "db2"
        ]
        from_head = sum(len(m.entries) for src, dst, m in appends if (src, dst) == ("lt2a", "db2"))
        # Only what the retry had put in flight crossed the WAN for db2
        # alone; from its first PROXY_OP on, its payload came out of
        # lt2a's log — most of the gap — until it carried the region again.
        assert proxy_ops and max(own_payload) < min(proxy_ops)
        assert from_head > gap // 2
        assert ring.node("lt2a").metrics["proxy_degrades"] == 0
        last_to_db2 = [m for _src, dst, m in entry_bearing(sent) if dst == "db2"][-1]
        assert last_to_db2.fanout == ("lt2a", "lt2b")

    def test_acting_head_crashes_too(self):
        ring, leader = self.streaming_ring()
        ring.host("db2").crash()
        write_stream(ring, 0.6)
        ring.host("lt2a").crash()
        cascaded = ring.loop.now
        write_stream(ring, 0.6)
        # Both members behind lt2a went silent with it: direct retries,
        # and the first one back — the only one left — becomes head.
        assert head_moves(ring, cascaded) == [("lt2b", "silent")]
        sent = record_sends(ring.net)
        indexes = write_stream(ring, 0.3)
        ring.run(WAN_RTT)
        assert ring.node("lt2b").last_opid.index >= indexes[-1]
        assert payload_into(sent, "db1", ("lt2b",)) == ({("lt2b", ())}, len(indexes))
        # lt2a returns as an ordinary member behind lt2b; the database
        # returns, catches up through lt2b, and takes the role back.
        ring.host("lt2a").restart()
        write_stream(ring, 1.0)
        assert leader.stats()["proxy"]["acting_heads"] == {"db2": "lt2b"}
        assert ring.node("lt2b").metrics["proxy_forwards"] > 0
        ring.host("db2").restart()
        returned = ring.loop.now
        write_stream(ring, 1.0)
        assert head_moves(ring, returned) == [("db2", "level")]
        ring.run(1.0)
        assert {ring.node(n).last_opid for n in ("db2", "lt2a", "lt2b")} == {leader.last_opid}

    def test_isolated_region_gets_direct_retries_and_a_head_after_the_first_ack(self):
        ring, leader = self.streaming_ring()
        ring.net.isolate_region("r2")
        sent = record_sends(ring.net)
        write_stream(ring, 1.0)
        # Nobody in the group can serve: the role stays put, every member
        # is retried direct (as before), nothing rides.
        assert head_moves(ring) == [] and leader.metrics["proxy_reroots"] == 0
        retried = {dst for src, dst, m in entry_bearing(sent[20:]) if src == "db1" and not m.fanout}
        assert retried >= {"db2", "lt2a", "lt2b"}
        ring.net.heal_region("r2")
        write_stream(ring, 1.0)
        assert leader.stats()["proxy"]["acting_heads"] == {}
        sent = record_sends(ring.net)
        indexes = write_stream(ring, 0.2)
        ring.run(WAN_RTT)
        assert payload_into(sent, "db1", ("db2", "lt2a", "lt2b")) == (
            {("db2", ("lt2a", "lt2b"))}, len(indexes)
        )

    def test_fault_free_stream_on_the_paper_topology_never_moves_a_head(self):
        members = paper_topology().members()
        ring = RaftRing(members, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
        leader = ring.bootstrap("region0-db1")
        ring.run(1.0)
        indexes = write_stream(ring, 2.0, every=0.005)
        ring.run(1.0)
        assert all(ring.node(m.name).last_opid.index == indexes[-1] for m in members)
        assert sum(n.metrics["proxy_reroots"] for n in ring.nodes.values()) == 0
        assert sum(n.metrics["proxy_degrades"] for n in ring.nodes.values()) == 0
        assert leader.stats()["proxy"]["acting_heads"] == {} and head_moves(ring) == []

    def test_chains_longer_than_one_hop_are_left_alone(self):
        router = StaticProxyRouter({"lt2a": ["db2"], "lt2b": ["db2", "lt2a"]})
        ring, leader = self.streaming_ring(router=router)
        ring.host("db2").crash()
        indexes = write_stream(ring, 1.0)
        ring.run(1.0)  # the last window's retry waits for a heartbeat pass
        # The one-hop group (db2, lt2a) re-roots; lt2b's two-hop chain
        # still names the dead db2, so rule 2's retry serves it direct.
        assert leader.stats()["proxy"]["acting_heads"] == {"db2": "lt2a"}
        chains, behind = leader.leader_state.routes(leader.membership, router, ring.loop.now)
        assert chains == {"db2": ("lt2a",), "lt2b": ("db2", "lt2a")}
        assert behind == {"lt2a": ["db2"]}
        assert ring.node("lt2b").last_opid.index >= indexes[-1]
