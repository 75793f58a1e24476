"""What a workload's timed slices may and may not do."""

from benchmarks.e2e.workloads import WORKLOADS


def test_failover_trial_is_closed_outside_its_timed_slice():
    """The slice is build + fault + settle only; draining the cluster and
    the end-state checks (convergence, checksums, lost-probe scan, counter
    snapshot) belong to ``after_slice``, which ``child`` never times."""
    drill = WORKLOADS["failover_drill"]
    state = drill.setup(seed=3, seconds=0.6)
    outcome = state["outcome"]
    slices = drill.measure(state)

    assert next(slices) is True  # more trials follow
    cluster, probe, sim_seconds = state["open_trial"]
    assert len(state["failover_ms"]) == 1 and sim_seconds > 1.0
    assert probe.stop_at == float("inf")  # the prober is still running
    assert outcome.attempted == 0 and outcome.counters == {} and state["engines"] == []
    settled_at = cluster.loop.now

    drill.after_slice(state)
    assert cluster.loop.now > settled_at  # it drained
    assert outcome.attempted == probe.attempted > 0 and len(state["engines"]) == 1
    assert outcome.counters["events"] > 0 and not outcome.violations
