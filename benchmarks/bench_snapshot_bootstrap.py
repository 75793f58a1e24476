"""Snapshot-seeded bootstrap vs index-1 replay (repro.snapshot).

Acceptance gate for in-protocol snapshot shipping: on an overwrite-heavy
log of >= 5,000 entries, re-seeding a wiped cross-region member from a
snapshot must ship strictly fewer cross-region bytes AND catch up
strictly faster than replaying the log from index 1 — and the leader,
having purged its log prefix, must still bootstrap the member
end-to-end.

``SNAPSHOT_BENCH_ENTRIES`` scales the log for quick smoke runs (CI uses
a smaller log; the default meets the >= 5,000-entry acceptance bar).
"""

import os

from repro.experiments.snapshot_bootstrap import run_snapshot_bootstrap

ENTRIES = int(os.environ.get("SNAPSHOT_BENCH_ENTRIES", "5200"))


def test_snapshot_bootstrap(benchmark, report_printer):
    result = benchmark.pedantic(
        lambda: run_snapshot_bootstrap(entries=ENTRIES), rounds=1, iterations=1
    )
    report_printer(result.format_report())
    # The workload actually produced the promised log.
    assert result.log_last_index >= ENTRIES
    # Both bootstrap paths finished and every database converged.
    assert result.index1.caught_up and result.snapshot.caught_up
    assert result.converged
    # The leader really compacted: log no longer starts at 1, whole
    # files were dropped, and the member was seeded over the wire.
    assert result.snapshot.purged_files > 0
    assert result.snapshot.leader_first_index > 1
    # The image is cut at the leader's tip, so installing it *is* the
    # catch-up and the measurement ends one WAN hop before the leader
    # counts the acknowledgement: assert on the bytes it sent and the
    # install the member completed, and that replay shipped no image.
    assert result.snapshot.snapshot_bytes_sent > 0
    assert result.snapshot.snapshot_installs >= 1
    assert result.index1.snapshot_bytes_sent == 0
    assert result.index1.snapshot_installs == 0
    # The headline claims: strictly fewer cross-region bytes, strictly
    # faster catch-up.
    assert result.snapshot.cross_region_bytes < result.index1.cross_region_bytes
    assert result.snapshot.catchup_seconds < result.index1.catchup_seconds
