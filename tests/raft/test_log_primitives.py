"""Unit tests for Raft primitives: log storage, cache, messages, state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import LogTruncatedError, RaftError
from repro.raft.log_cache import LogCache
from repro.raft.log_storage import InMemoryLogStorage, LogEntry
from repro.raft.membership import MembershipConfig
from repro.raft.messages import (
    PER_ENTRY_OVERHEAD_BYTES,
    PROXY_OP_BYTES,
    RPC_HEADER_BYTES,
    AppendEntriesRequest,
)
from repro.raft.quorum import MajorityQuorum
from repro.raft.election import VoteTally
from repro.raft.replication import LeaderState
from repro.raft.types import MemberInfo, MemberType, OpId


def entry(index, term=1, size=8):
    return LogEntry(OpId(term, index), b"x" * size)


class TestOpId:
    def test_ordering_is_term_major(self):
        assert OpId(1, 100) < OpId(2, 1)
        assert OpId(2, 1) < OpId(2, 2)

    def test_str_roundtrip(self):
        assert OpId.parse(str(OpId(3, 17))) == OpId(3, 17)

    def test_zero(self):
        assert OpId.zero() < OpId(1, 1)


class TestInMemoryLogStorage:
    def test_append_and_read(self):
        storage = InMemoryLogStorage()
        storage.append([entry(1), entry(2)])
        assert storage.last_opid() == OpId(1, 2)
        assert storage.entry(2).opid == OpId(1, 2)
        assert storage.entry(3) is None

    def test_append_gap_rejected(self):
        storage = InMemoryLogStorage()
        storage.append([entry(1)])
        with pytest.raises(RaftError):
            storage.append([entry(3)])

    def test_term_regression_rejected(self):
        storage = InMemoryLogStorage()
        storage.append([entry(1, term=3)])
        with pytest.raises(RaftError):
            storage.append([entry(2, term=2)])

    def test_truncate(self):
        storage = InMemoryLogStorage()
        storage.append([entry(i) for i in range(1, 6)])
        removed = storage.truncate_from(3)
        assert [e.opid.index for e in removed] == [3, 4, 5]
        assert storage.last_opid() == OpId(1, 2)

    def test_purge_and_truncated_reads(self):
        storage = InMemoryLogStorage()
        storage.append([entry(i) for i in range(1, 6)])
        assert storage.purge_below(3) == 2
        assert storage.first_index() == 3
        with pytest.raises(LogTruncatedError):
            storage.entry(1)
        assert storage.entry(3).opid.index == 3

    def test_purge_everything_keeps_last_opid(self):
        storage = InMemoryLogStorage()
        storage.append([entry(i, term=2) for i in range(1, 4)])
        storage.purge_below(4)
        assert storage.last_opid() == OpId(2, 3)
        assert storage.is_empty() is False or storage.last_opid() == OpId(2, 3)

    def test_read_range_byte_budget(self):
        storage = InMemoryLogStorage()
        storage.append([entry(i, size=100) for i in range(1, 10)])
        batch = storage.read_range(1, max_entries=50, max_bytes=250)
        assert len(batch) == 2  # third would exceed 250 bytes
        # A single over-budget entry still ships.
        batch = storage.read_range(1, max_entries=50, max_bytes=10)
        assert len(batch) == 1

    def test_durable_dict_survives_reconstruction(self):
        durable = {}
        storage = InMemoryLogStorage(durable)
        storage.append([entry(1)])
        again = InMemoryLogStorage(durable)
        assert again.last_opid() == OpId(1, 1)


class TestLogCache:
    def test_put_get(self):
        cache = LogCache(max_bytes=1024)
        cache.put(entry(1))
        assert cache.get(1).opid == OpId(1, 1)
        assert cache.get(2) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_byte_budget_evicts_oldest(self):
        cache = LogCache(max_bytes=100)
        for i in range(1, 6):
            cache.put(entry(i, size=30))
        assert 1 not in cache
        assert 5 in cache
        assert cache.size_bytes <= 100

    def test_replace_same_index(self):
        cache = LogCache(max_bytes=1024)
        cache.put(entry(1, size=10))
        cache.put(entry(1, size=20))
        assert cache.size_bytes == 20
        assert len(cache) == 1

    def test_truncate_from(self):
        cache = LogCache(max_bytes=1024)
        for i in range(1, 6):
            cache.put(entry(i))
        cache.truncate_from(3)
        assert 2 in cache and 3 not in cache and 5 not in cache

    def test_clear(self):
        cache = LogCache(max_bytes=1024)
        cache.put(entry(1))
        cache.clear()
        assert len(cache) == 0 and cache.size_bytes == 0

    def test_giant_entry_escape_hatch(self):
        # An entry bigger than the whole budget must still be cacheable
        # (it has to replicate), but only as the sole survivor of a full
        # eviction sweep — and the next insert evicts it again.
        cache = LogCache(max_bytes=100)
        for i in range(1, 4):
            cache.put(entry(i, size=30))
        cache.put(entry(4, size=500))
        assert len(cache) == 1 and 4 in cache
        assert cache.size_bytes > cache.max_bytes  # documented over-budget state
        cache.put(entry(5, size=30))
        assert 4 not in cache and 5 in cache
        assert cache.size_bytes <= cache.max_bytes

    def test_fill_counts_and_serves(self):
        cache = LogCache(max_bytes=1024)
        assert cache.get(7) is None
        cache.fill(entry(7))
        assert cache.get(7).opid == OpId(1, 7)
        stats = cache.stats()
        assert stats["fills"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_eviction_counter(self):
        cache = LogCache(max_bytes=100)
        for i in range(1, 6):
            cache.put(entry(i, size=30))
        assert cache.stats()["evictions"] == 2
        assert cache.stats()["entries"] == len(cache)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60))
    def test_budget_invariant(self, sizes):
        cache = LogCache(max_bytes=200)
        for i, size in enumerate(sizes, start=1):
            cache.put(entry(i, size=size))
            assert cache.size_bytes <= 200 or len(cache) == 1


class TestMessageWireSizes:
    def test_append_entries_counts_payload(self):
        request = AppendEntriesRequest(
            term=1, leader="a", prev_opid=OpId.zero(), commit_opid=OpId.zero(),
            entries=(entry(1, size=100), entry(2, size=50)),
        )
        expected = RPC_HEADER_BYTES + 2 * PER_ENTRY_OVERHEAD_BYTES + 150
        assert request.wire_size == expected

    def test_proxy_op_is_cheap(self):
        full = AppendEntriesRequest(
            term=1, leader="a", prev_opid=OpId.zero(), commit_opid=OpId.zero(),
            entries=(entry(1, size=500),),
        )
        proxied = AppendEntriesRequest(
            term=1, leader="a", prev_opid=OpId.zero(), commit_opid=OpId.zero(),
            proxy_opids=(OpId(1, 1),), final_dest="lt",
        )
        assert proxied.wire_size == RPC_HEADER_BYTES + PROXY_OP_BYTES
        assert proxied.wire_size < full.wire_size / 5

    def test_heartbeat_detection(self):
        heartbeat = AppendEntriesRequest(
            term=1, leader="a", prev_opid=OpId(1, 5), commit_opid=OpId(1, 5)
        )
        assert heartbeat.is_heartbeat


class TestLeaderState:
    def config(self):
        return MembershipConfig((
            MemberInfo("a", "r1", MemberType.VOTER),
            MemberInfo("b", "r1", MemberType.VOTER),
            MemberInfo("c", "r2", MemberType.VOTER),
            MemberInfo("l", "r2", MemberType.NON_VOTER),
        ))

    def test_fresh_tracks_peers(self):
        state = LeaderState.fresh(2, "a", self.config(), last_log_index=5)
        assert set(state.peers) == {"b", "c", "l"}
        assert all(p.next_index == 6 for p in state.peers.values())

    def test_commit_advances_with_majority(self):
        state = LeaderState.fresh(1, "a", self.config(), last_log_index=0)
        state.last_log_index = 3
        state.peers["b"].acked(2)
        commit = state.advance_commit(0, MajorityQuorum(), self.config(), lambda i: 1)
        assert commit == 2
        state.peers["c"].acked(3)
        commit = state.advance_commit(commit, MajorityQuorum(), self.config(), lambda i: 1)
        assert commit == 3

    def test_old_term_entries_not_counted_directly(self):
        state = LeaderState.fresh(2, "a", self.config(), last_log_index=0)
        state.last_log_index = 2
        state.peers["b"].acked(2)
        # Entry 1 and 2 are old-term: cannot commit by counting.
        commit = state.advance_commit(0, MajorityQuorum(), self.config(), lambda i: 1)
        assert commit == 0
        # A current-term entry at 3 commits everything before it.
        state.last_log_index = 3
        state.peers["b"].acked(3)
        terms = {1: 1, 2: 1, 3: 2}
        commit = state.advance_commit(0, MajorityQuorum(), self.config(), terms.get)
        assert commit == 3

    def test_only_the_policys_data_quorum_voters_count_toward_commit(self):
        from repro.flexiraft import FlexiMode, FlexiRaftPolicy

        config = self.config()
        state = LeaderState.fresh(1, "a", config, last_log_index=0)
        majority, in_region = MajorityQuorum(), FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        assert [n for n in "bcl" if state.counts_toward_commit(n, majority, config)] == ["b", "c"]
        # The memo follows the policy (Quorum Fixer override) and the config.
        assert [n for n in "bcl" if state.counts_toward_commit(n, in_region, config)] == ["b"]
        grown = config.with_added(MemberInfo("d", "r1", MemberType.VOTER), 7)
        assert state.counts_toward_commit("d", in_region, grown)
        assert not state.counts_toward_commit("d", in_region, config)

    def test_most_caught_up_peer(self):
        state = LeaderState.fresh(1, "a", self.config(), last_log_index=9)
        # Nobody has answered this leader yet: membership order must not
        # nominate the first name (it may be the member whose crash
        # caused the election).
        assert state.most_caught_up_peer(["b", "c"]) is None
        state.peers["b"].acked(5)
        assert state.most_caught_up_peer(["b", "c"]) == "b"
        state.peers["c"].acked(8)
        assert state.most_caught_up_peer(["b", "c"]) == "c"
        assert state.most_caught_up_peer([]) is None
        # A peer that never acked is not a candidate whatever its match
        # index claims; neither is a name the leader does not track.
        state.peers["l"].match_index = 9
        assert state.most_caught_up_peer(["l", "b"]) == "b"
        assert state.most_caught_up_peer(["l", "ghost"]) is None


class TestVoteTally:
    def test_record_and_learn(self):
        tally = VoteTally(term=3)
        tally.record("a", True)
        tally.record("b", False)
        tally.record("b", True)  # changed its mind (retransmit)
        assert tally.granted == {"a", "b"}
        assert tally.denied == set()
        tally.learn_leader(5, "r2")
        tally.learn_leader(4, "r1")  # older: ignored
        assert tally.best_leader_region == "r2"
