"""PeerProgress.send_window_start edge cases.

The send cursor arbitrates between five behaviours — retry-after-
timeout, pipeline-new-tail, forced heartbeat, probe of a peer that is
not answering, nothing — plus two that shape them: the in-flight window
cap and redundant-heartbeat suppression (which the leader's Replicator
applies to the heartbeats the cursor asks for). Each transition is
pinned here at the unit level
(ring-level interactions live in test_write_batching.py).
"""

from __future__ import annotations

import pytest

from repro.raft import replication
from repro.raft.replication import (
    APPEND_RETRY_INTERVAL,
    APPEND_WINDOW_MIN,
    MAX_ENTRIES_PER_APPEND,
    PeerProgress,
)

from tests.raft.harness import record_sends, three_node_ring

RETRY = APPEND_RETRY_INTERVAL
SUPPRESS = 0.5


@pytest.fixture
def inflight_cap(monkeypatch):
    """Two windows in flight reach the cap."""
    monkeypatch.setattr(replication, "MAX_INFLIGHT_WINDOWS", 2)


def progress(next_index: int, **kwargs) -> PeerProgress:
    return PeerProgress(next_index=next_index, **kwargs)


def caught_up(last: int, **kwargs) -> PeerProgress:
    return progress(last + 1, match_index=last, **kwargs)


class TestLegacyCursor:
    def test_caught_up_unforced_sends_nothing(self):
        p = caught_up(10, last_sent_time=5.0)
        assert p.send_window_start(10, now=5.1, force=False) is None

    def test_caught_up_forced_is_pure_heartbeat(self):
        p = caught_up(10, last_sent_time=5.0)
        assert p.send_window_start(10, now=5.1, force=True) == 11

    def test_silent_peer_retries_from_next_index(self):
        # The window sent at 1.0 was never acked: the resend from
        # next_index is a probe, and the cursor is rewound to match.
        p = progress(5, match_index=4, last_sent_index=9, last_sent_time=1.0)
        p.inflight.append(9)
        assert p.send_window_start(10, now=1.0 + RETRY, force=False) == 5
        assert not p.answering and p.last_sent_index == 4

    def test_recent_send_pipelines_new_tail(self):
        p = progress(5, last_sent_index=7, last_sent_time=1.0)
        assert p.send_window_start(10, now=1.1, force=False) == 8

    def test_pipeline_never_goes_below_next_index(self):
        # Acks advanced next_index past what we last sent (e.g. a
        # snapshot install): the new tail starts at next_index.
        p = progress(9, last_sent_index=7, last_sent_time=1.0)
        assert p.send_window_start(10, now=1.1, force=False) == 9

    def test_all_sent_recently_forced_heartbeats(self):
        p = progress(5, last_sent_index=10, last_sent_time=1.0)
        assert p.send_window_start(10, now=1.1, force=False) is None
        assert p.send_window_start(10, now=1.1, force=True) == 11


class TestInflightWindowCap:
    @pytest.mark.usefixtures("inflight_cap")
    def test_at_cap_stops_pipelining_new_tail(self):
        p = progress(1, last_sent_time=1.0)
        p.inflight.append(8)
        p.inflight.append(16)
        p.last_sent_index = 16
        assert len(p.inflight) == replication.MAX_INFLIGHT_WINDOWS
        assert p.send_window_start(30, now=1.1, force=False) is None

    @pytest.mark.usefixtures("inflight_cap")
    def test_ack_frees_a_slot_and_pipelining_resumes(self):
        p = progress(1, last_sent_time=1.0)
        p.inflight.append(8)
        p.inflight.append(16)
        p.last_sent_index = 16
        p.acked(8)
        assert len(p.inflight) == 1
        assert p.send_window_start(30, now=1.1, force=False) == 17

    @pytest.mark.usefixtures("inflight_cap")
    def test_retry_pierces_the_cap_and_collapses(self):
        p = progress(1, last_sent_time=1.0)
        p.inflight.append(8)
        p.inflight.append(16)
        p.window_entries = 64
        assert p.send_window_start(30, now=1.0 + RETRY, force=False) == 1
        assert p.inflight == []
        assert p.window_entries == APPEND_WINDOW_MIN
        # What pierced the cap is a probe: until the peer answers, it is
        # sent nothing else.
        assert not p.answering and p.last_sent_index == 0

    def test_inflight_high_water_mark(self):
        # The node's one high-water mark: the most entry-bearing windows
        # ever in flight toward any single peer, never lowered by acks.
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        ring.run(0.5)
        assert leader.metrics["inflight_hwm"] == 1  # the no-op's window
        ring.net.block_link("n1", "n3")
        for _ in range(3):
            leader.propose(lambda opid: b"E")
            ring.run(0.01)
        assert leader.leader_state.peers["n3"].inflight
        hwm = leader.metrics["inflight_hwm"]
        assert hwm == len(leader.leader_state.peers["n3"].inflight) > 1
        ring.net.unblock_link("n1", "n3")
        ring.run(1.0)
        assert not leader.leader_state.peers["n3"].inflight
        assert leader.metrics["inflight_hwm"] == hwm
        assert leader.stats()["write_path"]["inflight_hwm"] == hwm


class TestAdaptiveWindow:
    def test_starts_at_window_min(self):
        p = progress(1)
        assert p.window_entries == APPEND_WINDOW_MIN

    def test_clean_acks_double_up_to_max(self):
        p = progress(1)
        for tail in (8, 16, 24, 32):
            p.inflight.append(tail)
            p.acked(tail)
        assert p.window_entries == MAX_ENTRIES_PER_APPEND
        p.inflight.append(40)
        p.acked(40)
        assert p.window_entries == MAX_ENTRIES_PER_APPEND  # capped

    def test_partial_ack_only_credits_covered_windows(self):
        p = progress(1)
        p.inflight.append(8)
        p.inflight.append(16)
        p.acked(8)  # window 16 still outstanding
        assert p.inflight == [16]
        assert p.window_entries == 16  # one doubling, not two

    def test_rejection_collapses_to_slow_start(self):
        p = progress(10, window_entries=64)
        p.inflight.append(20)
        p.on_rejected(20)
        assert p.window_entries == APPEND_WINDOW_MIN
        assert p.inflight == []


class TestProbes:
    """A peer that is not answering gets empty appends at its own cursor,
    on a forced round or once per retry interval — never entries."""

    @pytest.mark.usefixtures("inflight_cap")
    def test_a_never_answered_peer_is_probed_at_next_index(self):
        # The election's presumed-dead predecessor: silent from the start.
        p = progress(5, answering=False, last_sent_index=9)
        assert p.send_window_start(10, now=0.0, force=True) == 5
        p.last_sent_time = 1.0  # the probe went out
        assert p.send_window_start(10, now=1.1, force=False) is None
        assert p.send_window_start(10, now=1.1, force=True) == 5
        assert p.send_window_start(10, now=1.0 + RETRY, force=False) == 5
        # The in-flight cap does not apply to a probe (nor does heartbeat
        # suppression: the leader suppresses answering peers only).
        p.inflight.extend([7, 8, 9])
        assert p.send_window_start(10, now=1.1, force=True) == 5

    @pytest.mark.usefixtures("inflight_cap")
    def test_a_silent_window_turns_into_a_probe_with_its_cursor_rewound(self):
        p = progress(11, match_index=10, last_sent_time=1.0, window_entries=32)
        for tail in (18, 26):
            p.inflight.append(tail)
        p.last_sent_index = 26
        assert p.send_window_start(40, now=1.1, force=True) is None  # at the cap
        assert p.answering
        assert p.send_window_start(40, now=1.0 + RETRY, force=False) == 11
        assert not p.answering
        assert (p.last_sent_index, p.inflight, p.window_entries) == (10, [], APPEND_WINDOW_MIN)
        assert p.sent_horizon == 10  # a head no more: nothing past match is vouched for

    def test_a_reject_counts_as_an_answer(self):
        p = progress(11, answering=False)
        p.on_rejected(10)
        assert p.answering

    def test_an_ack_counts_as_an_answer(self):
        p = progress(11, answering=False)
        p.acked(10)
        assert p.answering and p.acked_in_term and p.next_index == 11

    def test_a_probe_below_first_index_takes_the_snapshot_path(self):
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        for _ in range(6):
            ring.commit_and_run(b"E", seconds=0.1)
        ring.host("n3").crash()
        progress = leader.leader_state.peers["n3"]
        progress.answering, progress.next_index = False, 2
        leader.storage.purge_below(4)
        leader.cache.clear()
        shipped = []
        leader.snapshots.ship_to = lambda peer: shipped.append(peer) or True
        sent = record_sends(ring.net)
        leader.replicator.replicate(["n3"], force=True)
        assert shipped == ["n3"]
        assert not [m for _src, dst, m in sent if dst == "n3"]
        assert leader.metrics["probes_sent"] == 0


class TestHeartbeatSuppression:
    """The cursor asks for a heartbeat; the leader skips it when it is
    redundant and counts the skip in its metrics."""

    def test_fresh_traffic_with_current_commit_suppresses(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        assert p.send_window_start(10, now=1.2, force=True) == 11
        assert p.heartbeat_redundant(1.2, SUPPRESS, commit_index=9)

    def test_stale_commit_marker_still_heartbeats(self):
        # Commit advanced since the last send: the heartbeat is the only
        # carrier of the new marker and must go out.
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=8)
        assert p.send_window_start(10, now=1.2, force=True) == 11
        assert not p.heartbeat_redundant(1.2, SUPPRESS, commit_index=9)

    def test_stale_traffic_still_heartbeats(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        assert p.send_window_start(10, now=1.0 + SUPPRESS, force=True) == 11
        assert not p.heartbeat_redundant(1.0 + SUPPRESS, SUPPRESS, commit_index=9)

    def test_suppression_disabled_by_zero_window(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        assert not p.heartbeat_redundant(1.01, 0.0, commit_index=9)

    def test_all_sent_branch_also_suppresses(self):
        p = progress(
            5, last_sent_index=10, last_sent_time=1.0, last_sent_commit=9
        )
        assert p.send_window_start(10, now=1.1, force=True) == 11
        assert p.heartbeat_redundant(1.1, SUPPRESS, commit_index=9)

    def test_the_count_survives_a_change_of_leader(self):
        # A cumulative node counter: it used to be a sum over the
        # current term's peers, lost with them on step-down.
        ring = three_node_ring()
        leader = ring.bootstrap("n1")
        for _ in range(40):
            ring.commit_and_run(b"E", seconds=0.1)
        suppressed = leader.stats()["write_path"]["heartbeats_suppressed"]
        assert suppressed > 0
        transfer = leader.transfer_leadership("n2")
        ring.run(1.0)
        assert transfer.result() is True and not leader.is_leader
        after = leader.stats()["write_path"]["heartbeats_suppressed"]
        assert after >= suppressed
        assert leader.metrics["heartbeats_suppressed"] == after


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
