"""Proxying tests (§4.2): region fan-out, PROXY_OP, reconstitution,
degrade, per-destination route-around, the head that follows health and
progress, and the cross-region bandwidth saving."""

from collections import Counter

from repro.cluster import paper_topology
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.membership import MembershipConfig
from repro.raft.messages import AppendEntriesRequest
from repro.raft.proxy import PROXY_WAIT_TIMEOUT, RegionProxyRouter, RouteTable, StaticProxyRouter
from repro.raft.replication import (
    APPEND_RETRY_INTERVAL,
    MAX_INFLIGHT_WINDOWS,
    LeaderState,
    PeerProgress,
)

from tests.raft.harness import RaftRing, record_sends, voter, witness

PAPER_ENTRY_BYTES = 500  # §4.2.2's assumed average log entry size
WAN_RTT = 0.060  # the harness ring: 30 ms one way between regions


def two_region_members():
    return [
        voter("db1", "r1"), witness("lt1a", "r1"), witness("lt1b", "r1"),
        voter("db2", "r2"), witness("lt2a", "r2"), witness("lt2b", "r2"),
    ]


DIRECT = StaticProxyRouter({})  # no proxies: every member reached directly


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
        assert router.proxy_for("db1", "lt1a", config) is None

    def test_remote_logtailer_routes_via_regional_database(self):
        router = RegionProxyRouter()
        config = MembershipConfig(tuple(two_region_members()))
        assert router.proxy_for("db1", "lt2a", config) == "db2"

    def test_remote_database_is_direct(self):
        router = RegionProxyRouter()
        config = MembershipConfig(tuple(two_region_members()))
        assert router.proxy_for("db1", "db2", config) is None

    def test_static_router(self):
        router = StaticProxyRouter({"x": "p1", "y": "db1"})
        config = MembershipConfig(tuple(two_region_members()))
        assert router.proxy_for("db1", "x", config) == "p1"
        assert router.proxy_for("db1", "unrouted", config) is None
        assert router.proxy_for("db1", "y", config) is None  # never through the leader


class TestRouteTable:
    """The head rule as a function of the leader's PeerProgress alone."""

    def table(self):
        config = MembershipConfig(tuple(two_region_members()))
        table = RouteTable("db1", config, RegionProxyRouter())
        peers = {m.name: PeerProgress(next_index=11, match_index=10) for m in config.peers_of("db1")}
        return table, peers

    @staticmethod
    def silence(peers, *names, answering=False):
        for name in names:
            peers[name].answering = answering

    def test_healthy_ring_is_the_routers_tree(self):
        # A fault-free pass moves nothing.
        table, peers = self.table()
        assert table.review_heads(peers) == []
        assert table.heads == {"lt2a": "db2", "lt2b": "db2"}
        assert table.behind == {"db2": ["lt2a", "lt2b"]}
        assert table.groups == {"db2": ("db2", "lt2a", "lt2b")} and table.acting == {}

    def test_silent_head_hands_over_to_the_most_advanced_member(self):
        table, peers = self.table()
        self.silence(peers, "db2")  # its windows went unacked
        peers["lt2b"].last_sent_index = 12
        peers["lt2b"].direct_until = 14  # routed around db2: still eligible
        assert table.review_heads(peers) == [("db2", "lt2b", "silent")]
        assert table.heads == {"db2": "lt2b", "lt2a": "lt2b"}
        assert table.behind == {"lt2b": ["db2", "lt2a"]}
        assert table.review_heads(peers) == []  # sticky: nothing new, nothing moves

    def test_ties_go_by_membership_order_and_nobody_eligible_moves_nothing(self):
        table, peers = self.table()
        self.silence(peers, "db2", "lt2a", "lt2b")  # a silent region
        assert table.review_heads(peers) == [] and table.acting == {}
        self.silence(peers, "lt2a", "lt2b", answering=True)
        assert table.review_heads(peers) == [("db2", "lt2a", "silent")]

    def test_a_preferred_head_is_not_unseated_for_being_unproven(self):
        # A new leader's first round: nobody has acked yet, but everybody
        # answers until a window goes unacked.
        table, peers = self.table()
        assert not any(p.acked_in_term for p in peers.values())
        assert table.review_heads(peers) == []

    def test_acting_head_that_stops_acking_loses_the_role(self):
        table, peers = self.table()
        self.silence(peers, "db2")
        table.review_heads(peers)
        assert table.acting == {"db2": "lt2a"}
        self.silence(peers, "lt2a")
        assert table.review_heads(peers) == [("db2", "lt2b", "silent")]

    def test_preferred_member_takes_the_role_back_once_level(self):
        table, peers = self.table()
        self.silence(peers, "db2")
        peers["lt2a"].match_index = peers["lt2a"].last_sent_index = 40
        table.review_heads(peers)
        self.silence(peers, "db2", answering=True)
        peers["db2"].match_index = 14  # back, acking, but far behind
        assert table.review_heads(peers) == [] and table.acting == {"db2": "lt2a"}
        peers["db2"].last_sent_index = 40  # rode level with the acting head
        assert table.review_heads(peers) == [("db2", "db2", "level")]
        assert table.acting == {} and table.behind == {"db2": ["lt2a", "lt2b"]}

    def test_a_reroot_clears_the_groups_route_arounds(self):
        config = MembershipConfig(tuple(two_region_members()))
        state = LeaderState.fresh(1, "db1", config, last_log_index=10, silent={"db2"})
        state.peers["lt2a"].direct_until = 14  # degraded around db2
        _heads, behind, _moved = state.routes(config, RegionProxyRouter())
        assert behind == {"lt2a": ["db2", "lt2b"]}
        assert state.peers["lt2a"].direct_until == 0 and not state.peers["lt2a"].routed_around


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
        # PROXY_WAIT_TIMEOUT it must degrade the message to a heartbeat and
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
        ring.run(PROXY_WAIT_TIMEOUT + 0.1)
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
        # Once db2's windows go unanswered for the retry interval the
        # leader only probes it, and the logtailers still get entries.
        ring.run(APPEND_RETRY_INTERVAL + 1.0)
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
        opid, fut = ring.commit_and_run(b"next", seconds=0.24)  # < APPEND_RETRY_INTERVAL
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
        # Idle, the unanswered window is noticed at a heartbeat tick at
        # least a retry interval after it went out; a probe's round trip
        # later a logtailer carries the region.
        ring.run(2 * ring.config.heartbeat_interval + 2 * WAN_RTT)
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
        ring = RaftRing(members, router=StaticProxyRouter({"lt2a": "db2"}))
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
        ring.run(2 * APPEND_RETRY_INTERVAL)
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
        assert proxy.metrics["proxy_degrades"] == 1  # no PROXY_WAIT_TIMEOUT first
        (_src, dst, heartbeat), = sent
        assert dst == "lt2a" and heartbeat.is_heartbeat
        assert heartbeat.degraded_through == proxy.storage.first_index() - 1 == 24
        ring.run(0.1)
        progress = leader.leader_state.peers["lt2a"]
        assert progress.direct_until >= 24
        ring.run(2 * APPEND_RETRY_INTERVAL)
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


class TestOnlyAnsweringMembersAreSentEntries:
    """DESIGN.md §15 rule 2: a peer that is not answering is sent empty
    appends only — from the first round of a term elected against it."""

    def test_dead_predecessor_is_only_probed_and_every_region_gets_one_copy(self):
        members = paper_topology().members()
        region = {m.name: m.region for m in members}
        ring = RaftRing(members, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC))
        ring.bootstrap("region0-db1")
        ring.run(1.0)
        write_stream(ring, 0.2)
        ring.host("region0-db1").crash()
        sent = record_sends(ring.net)
        winner = ring.wait_for_leader(exclude="region0-db1", step=0.005)
        assert region[winner.name] != "region0"
        assert [(r.get("peer"), r.get("reason")) for r in ring.tracer.of_kind("raft.peer_silent")] == [
            ("region0-db1", "presumed-dead")
        ]
        # The dead primary's region is re-rooted before the first round.
        assert head_moves(ring) == [("region0-lt1", "silent")]
        write_stream(ring, 1.0)
        assert ring.current_leader() is winner
        assert winner.stats()["proxy"]["silent"] == ["region0-db1"]
        appends = [(dst, m) for src, dst, m in sent if src == winner.name and isinstance(m, AppendEntriesRequest)]
        to_dead = [m for dst, m in appends if dst == "region0-db1"]
        assert to_dead and all(m.is_heartbeat for m in to_dead)
        # Every remote region is fed one copy of each entry, through one
        # member, from the no-op on.
        copies = Counter(
            (region[dst], entry.opid.index)
            for dst, m in appends if region[dst] != region[winner.name]
            for entry in m.entries
        )
        assert copies and max(copies.values()) == 1
        remote = set(region.values()) - {region[winner.name]}
        assert {region[dst] for dst, m in appends if m.fanout} == remote


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
        every = 0.01
        ring.host("db2").crash()
        # The in-flight windows fill and go unanswered, the retry probes
        # all three members, and the first logtailer to answer is head.
        write_stream(ring, MAX_INFLIGHT_WINDOWS * every + APPEND_RETRY_INTERVAL + WAN_RTT + every)
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
        assert sum(n.metrics["proxy_degrades"] for n in ring.nodes.values()) == 0
        # The dead database is only probed: empty appends, direct.
        assert leader.stats()["proxy"]["silent"] == ["db2"]
        assert not [m for _s, dst, m in sent if dst == "db2" and isinstance(m, AppendEntriesRequest) and m.entries]
        assert leader.metrics["probes_sent"] > 0

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
        # Caught up once what the stream left in flight has landed: a
        # head holds its ack for its riders' (rule 1), so at the in-flight
        # cap the stream's last writes wait for a window (5 behind at the
        # last write at this seed; 3 with the cap raised or no hold).
        ring.run(2 * WAN_RTT)
        assert ring.node("db2").last_opid == leader.last_opid
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
        # Nothing crossed the WAN for db2 alone: it answered a probe, and
        # from its first PROXY_OP on its payload came out of lt2a's log —
        # most of the gap — until it carried the region again.
        assert proxy_ops and not own_payload
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
        write_stream(ring, 0.5)
        # Nobody in the group answers: the role stays put, every member is
        # probed direct, nothing rides and no entry is sent.
        assert leader.stats()["proxy"]["silent"] == ["db2", "lt2a", "lt2b"]
        sent = record_sends(ring.net)
        write_stream(ring, 0.5)
        assert head_moves(ring) == [] and leader.metrics["proxy_reroots"] == 0
        into_r2 = [(dst, m) for src, dst, m in sent if src == "db1" and dst in ("db2", "lt2a", "lt2b")]
        assert {dst for dst, _m in into_r2} == {"db2", "lt2a", "lt2b"}
        assert all(m.is_heartbeat and not m.fanout for _dst, m in into_r2)
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
