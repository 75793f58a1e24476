"""PeerProgress.send_window_start edge cases.

The send cursor arbitrates between four behaviours — retry-after-
timeout, pipeline-new-tail, forced heartbeat, nothing — plus two that
shape them: the in-flight window cap and redundant-heartbeat
suppression. Each transition is pinned here at the unit level
(ring-level interactions live in test_write_batching.py).
"""

from __future__ import annotations

import pytest

from repro.raft.replication import FlowControl, PeerProgress

RETRY = 0.25
SUPPRESS = 0.5
FLOW = FlowControl(max_inflight_windows=2, window_min=8, window_max=64)


def progress(next_index: int, **kwargs) -> PeerProgress:
    return PeerProgress(next_index=next_index, flow=FLOW, **kwargs)


def caught_up(last: int, **kwargs) -> PeerProgress:
    return progress(last + 1, match_index=last, **kwargs)


class TestLegacyCursor:
    def test_caught_up_unforced_sends_nothing(self):
        p = caught_up(10, last_sent_time=5.0)
        assert p.send_window_start(10, RETRY, now=5.1, force=False) is None

    def test_caught_up_forced_is_pure_heartbeat(self):
        p = caught_up(10, last_sent_time=5.0)
        assert p.send_window_start(10, RETRY, now=5.1, force=True) == 11

    def test_silent_peer_retries_from_next_index(self):
        p = progress(5, last_sent_index=9, last_sent_time=1.0)
        assert p.send_window_start(10, RETRY, now=1.0 + RETRY, force=False) == 5

    def test_recent_send_pipelines_new_tail(self):
        p = progress(5, last_sent_index=7, last_sent_time=1.0)
        assert p.send_window_start(10, RETRY, now=1.1, force=False) == 8

    def test_pipeline_never_goes_below_next_index(self):
        # Acks advanced next_index past what we last sent (e.g. a
        # snapshot install): the new tail starts at next_index.
        p = progress(9, last_sent_index=7, last_sent_time=1.0)
        assert p.send_window_start(10, RETRY, now=1.1, force=False) == 9

    def test_all_sent_recently_forced_heartbeats(self):
        p = progress(5, last_sent_index=10, last_sent_time=1.0)
        assert p.send_window_start(10, RETRY, now=1.1, force=False) is None
        assert p.send_window_start(10, RETRY, now=1.1, force=True) == 11


class TestInflightWindowCap:
    def test_at_cap_stops_pipelining_new_tail(self):
        p = progress(1, last_sent_time=1.0)
        p.note_sent_window(8)
        p.note_sent_window(16)
        p.last_sent_index = 16
        assert len(p.inflight) == FLOW.max_inflight_windows
        assert p.send_window_start(30, RETRY, now=1.1, force=False) is None

    def test_ack_frees_a_slot_and_pipelining_resumes(self):
        p = progress(1, last_sent_time=1.0)
        p.note_sent_window(8)
        p.note_sent_window(16)
        p.last_sent_index = 16
        p.acked(8, now=1.05)
        assert len(p.inflight) == 1
        assert p.send_window_start(30, RETRY, now=1.1, force=False) == 17

    def test_retry_pierces_the_cap_and_collapses(self):
        p = progress(1, last_sent_time=1.0)
        p.note_sent_window(8)
        p.note_sent_window(16)
        p.window_entries = 64
        assert p.send_window_start(30, RETRY, now=1.0 + RETRY, force=False) == 1
        assert p.inflight == []
        assert p.window_entries == FLOW.window_min

    def test_inflight_high_water_mark(self):
        p = progress(1)
        p.note_sent_window(8)
        p.note_sent_window(16)
        p.acked(16, now=1.0)
        p.note_sent_window(24)
        assert p.inflight_hwm == 2


class TestAdaptiveWindow:
    def test_starts_at_window_min(self):
        p = progress(1)
        assert p.window_entries == FLOW.window_min

    def test_clean_acks_double_up_to_max(self):
        p = progress(1)
        for tail in (8, 16, 24, 32):
            p.note_sent_window(tail)
            p.acked(tail, now=1.0)
        assert p.window_entries == FLOW.window_max
        p.note_sent_window(40)
        p.acked(40, now=1.1)
        assert p.window_entries == FLOW.window_max  # capped

    def test_partial_ack_only_credits_covered_windows(self):
        p = progress(1)
        p.note_sent_window(8)
        p.note_sent_window(16)
        p.acked(8, now=1.0)  # window 16 still outstanding
        assert p.inflight == [16]
        assert p.window_entries == 16  # one doubling, not two

    def test_rejection_collapses_to_slow_start(self):
        p = progress(10, window_entries=64)
        p.note_sent_window(20)
        p.on_rejected()
        assert p.window_entries == FLOW.window_min
        assert p.inflight == []


class TestHeartbeatSuppression:
    def test_fresh_traffic_with_current_commit_suppresses(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        start = p.send_window_start(
            10, RETRY, now=1.2, force=True,
            heartbeat_suppress_window=SUPPRESS, commit_index=9,
        )
        assert start is None
        assert p.suppressed_heartbeats == 1

    def test_stale_commit_marker_still_heartbeats(self):
        # Commit advanced since the last send: the heartbeat is the only
        # carrier of the new marker and must go out.
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=8)
        start = p.send_window_start(
            10, RETRY, now=1.2, force=True,
            heartbeat_suppress_window=SUPPRESS, commit_index=9,
        )
        assert start == 11
        assert p.suppressed_heartbeats == 0

    def test_stale_traffic_still_heartbeats(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        start = p.send_window_start(
            10, RETRY, now=1.0 + SUPPRESS, force=True,
            heartbeat_suppress_window=SUPPRESS, commit_index=9,
        )
        assert start == 11

    def test_suppression_disabled_by_zero_window(self):
        p = caught_up(10, last_sent_time=1.0, last_sent_commit=9)
        start = p.send_window_start(
            10, RETRY, now=1.01, force=True,
            heartbeat_suppress_window=0.0, commit_index=9,
        )
        assert start == 11

    def test_all_sent_branch_also_suppresses(self):
        p = progress(
            5, last_sent_index=10, last_sent_time=1.0, last_sent_commit=9
        )
        start = p.send_window_start(
            10, RETRY, now=1.1, force=True,
            heartbeat_suppress_window=SUPPRESS, commit_index=9,
        )
        assert start is None
        assert p.suppressed_heartbeats == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
