"""Violations the checker finds in the semi-sync baseline, kept unfixed.

The semi-sync setup is what the paper measures MyRaft against, so what
the checker finds there is a result to report, not a bug to fix
(EXPERIMENTS.md, "The baseline under the checker's faults"). Each
failing seed is a strict xfail: it fails while the violation
reproduces, and turns into a failure of this suite the day the run
comes out clean, so the record cannot go stale.

`promotion-churn` on semi-sync, seeds 1–25: these two violate. The
scenario starts a graceful promotion about every 3.3 s; the semi-sync
automation serializes dead-primary failovers but not graceful
promotions, so two or three of them interleave while members crash.
Replicas end up holding different transactions at the same position,
and clients read values a later write had replaced.

A primary that crashes and restarts inside the automation's detection
window is never failed over: it comes back as a read-only replica, its
health pings succeed again, and the automation's failure count resets.
Crashed at 1 s and restarted 2 s later, it leaves the replicaset with no
writable primary for good; the same crash without the restart fails over
to ``region1-db1``.
"""

from dataclasses import replace

import pytest

from repro.check import SCENARIOS, run_once
from repro.cluster import paper_topology
from repro.semisync import SemiSyncReplicaset

SEMISYNC_PROMOTION_CHURN = replace(SCENARIOS["promotion-churn"], stack="semisync")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="overlapping graceful promotions on the semi-sync baseline",
)
@pytest.mark.parametrize(
    "seed, kinds",
    [
        (3, ["EngineAgreement", "EngineAgreement", "Linearizability"]),
        (13, ["Linearizability"]),
    ],
)
def test_semisync_promotion_churn_is_clean(seed, kinds):
    outcome = run_once(SEMISYNC_PROMOTION_CHURN, seed)
    if outcome.failure_kinds() not in ([], kinds):
        pytest.fail(f"seed {seed} now fails otherwise: {outcome.failure_kinds()}")
    assert outcome.ok


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a semi-sync primary that restarts inside the detection window is never failed over",
)
def test_semisync_primary_restarted_inside_detection_window_is_replaced():
    cluster = SemiSyncReplicaset(paper_topology(), seed=1)
    primary = cluster.bootstrap().host.name
    cluster.run(1.0 - cluster.loop.now)
    cluster.crash(primary)
    cluster.run(2.0)
    cluster.restart(primary)
    cluster.run(180.0 - cluster.loop.now)
    assert cluster.primary_service() is not None
