"""Explorer, bundle, shrink, and mutation self-validation tests.

The integration tests here run real (short) simulations; the scenario
used is deliberately small so the whole module stays in tier-1 budget.
"""

from dataclasses import replace

import pytest

from repro.check.explorer import (
    default_jobs,
    explore,
    replay_bundle,
    run_once,
    write_bundle,
)
from repro.errors import ReproError
from repro.check.invariants import InvariantSuite
from repro.check.mutations import MUTATIONS, apply_mutation
from repro.check.scenarios import SCENARIOS, SWEEP
from repro.check.shrink import ddmin, shrink_schedule
from repro.flexiraft.policy import FlexiRaftPolicy
from repro.raft.election import Election
from repro.workload.faults import FaultEvent

from tests.raft.harness import region_ring

QUICK = replace(
    SCENARIOS["crashes"], duration=10.0, settle=4.0, clients=1, think_time=0.1
)


class TestRunOnce:
    def test_clean_run(self):
        outcome = run_once(QUICK, seed=3)
        assert outcome.ok
        assert outcome.committed > 0
        assert outcome.checks["commits"] > 0
        assert outcome.checks["reads"] > 0  # every read is a monitored ReadIndex read
        assert outcome.trace_tail

    def test_deterministic_digest(self):
        assert run_once(QUICK, seed=5).digest() == run_once(QUICK, seed=5).digest()

    def test_scripted_schedule_round_trip(self):
        first = run_once(QUICK, seed=4)
        events = [FaultEvent.from_wire(w) for w in first.fault_events]
        replayed = run_once(QUICK, seed=4, schedule=events)
        assert replayed.ok == first.ok
        assert replayed.scripted


class TestReplayCli:
    def test_scripted_replay_injects_the_recorded_faults(self, tmp_path, capsys):
        from repro.check.__main__ import main

        outcome = run_once(SCENARIOS["crashes"], seed=0, mutation="election-own-region-only")
        bundle = write_bundle(outcome, tmp_path)
        assert main(["--replay", str(bundle), "--scripted", "--quiet"]) == 1
        assert capsys.readouterr().out.startswith("scripted replayed crashes seed=0:")
        assert replay_bundle(bundle, scripted=True).scripted
        assert not replay_bundle(bundle).scripted


class TestProxyCrashSchedule:
    def test_half_the_episodes_cascade_onto_the_regions_first_logtailer(self):
        from repro.cluster.replicaset import MyRaftReplicaset

        scenario = SCENARIOS["proxy-crash"]
        episodes = cascades = 0
        for seed in range(1, 26):
            cluster = MyRaftReplicaset(scenario.topology(), seed=seed)
            _injector, schedule = scenario.make_faults(cluster, cluster.rng.child("faults"))
            back_at = {}  # victim -> when it comes back (episodes never overlap)
            for event in reversed(schedule.events):
                if event.kind in ("restart", "resume"):
                    back_at[event.target] = event.time
                    continue
                assert event.kind in ("crash", "pause")
                if event.target.endswith("-db1"):
                    episodes += 1
                    continue
                # The second victim: its region's database went down
                # 0.3-0.6 s before it, and they come back together.
                cascades += 1
                database = event.target.replace("-lt1", "-db1")
                first = max(
                    (e for e in schedule.events if e.target == database and e.time < event.time),
                    key=lambda e: e.time,
                )
                assert first.kind in ("crash", "pause")
                assert 0.3 <= event.time - first.time <= 0.6
                assert back_at[event.target] == back_at[database] > event.time
        assert episodes >= 40 and 0.35 <= cascades / episodes <= 0.65


class TestPromotionChurnSchedule:
    def test_transfers_to_databases_mixed_with_crashes_of_members_that_are_up(self):
        from repro.cluster.replicaset import MyRaftReplicaset

        scenario = SCENARIOS["promotion-churn"]
        transfers = crashes = 0
        for seed in range(1, 11):
            cluster = MyRaftReplicaset(scenario.topology(), seed=seed)
            _injector, schedule = scenario.make_faults(cluster, cluster.rng.child("faults"))
            databases = {m.name for m in cluster.membership.members if m.has_storage_engine}
            down_until = {}
            for event in schedule.events:
                if event.kind == "transfer":
                    transfers += 1
                    assert event.target in databases
                elif event.kind == "crash":
                    crashes += 1
                    assert down_until.get(event.target, 0.0) < event.time
                    down_until[event.target] = event.time + scenario.downtime
                else:
                    assert event.kind == "restart"
                    assert event.time == down_until[event.target]
        assert transfers >= 40 and crashes >= 20

    def test_a_run_counts_its_transfers(self):
        outcome = run_once(SCENARIOS["promotion-churn"], seed=1)
        assert outcome.ok
        assert outcome.checks["transfers"] >= 1
        assert 0 <= outcome.checks["transfers_failed"] <= outcome.checks["transfers"]


class TestNightlyMatrix:
    def test_the_nightly_sweep_covers_exactly_the_scenarios(self):
        # A scenario added without its nightly sweep would go unexplored.
        import re
        from pathlib import Path

        workflow = Path(__file__).resolve().parents[2] / ".github/workflows/nightly-fuzz.yml"
        matrix = re.search(r"^\s*scenario:\s*\[(.*)\]\s*$", workflow.read_text(), re.M)
        assert matrix is not None, "nightly-fuzz.yml has no scenario matrix"
        listed = [name.strip() for name in matrix.group(1).split(",")]
        assert len(listed) == len(set(listed))
        assert sorted(listed) == sorted(SWEEP)


class TestDdmin:
    def test_minimizes_to_exact_culprits(self):
        items = list(range(20))
        minimal = ddmin(items, lambda subset: 3 in subset and 7 in subset)
        assert sorted(minimal) == [3, 7]

    def test_single_item(self):
        assert ddmin([1], lambda subset: 1 in subset) == [1]

    def test_all_items_needed(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda subset: len(subset) == 3) == items

    def test_the_empty_list_is_probed_first(self):
        probes = []
        assert ddmin([1, 2, 3], lambda subset: True, lambda s, _: probes.append(s)) == []
        assert probes == [[]]


class TestMutations:
    def test_all_mutations_restore_cleanly(self):
        from repro.mysql.applier import Applier
        from repro.plugin.raft_plugin import MyRaftServer

        original_quorum = FlexiRaftPolicy.election_quorum_satisfied
        original_vote = Election.evaluate
        original_applied = MyRaftServer._applied_through
        original_submit = Applier._submit
        for name in MUTATIONS:
            with apply_mutation(name):
                pass
        assert FlexiRaftPolicy.election_quorum_satisfied is original_quorum
        assert Election.evaluate is original_vote
        assert MyRaftServer._applied_through is original_applied
        assert Applier._submit is original_submit

    def test_grantor_history_mutation_drops_only_what_grantors_report(self):
        from repro.raft.election import VoteTally
        from repro.raft.messages import RequestVoteResponse

        absorb = Election.__dict__["absorb"]
        grant = RequestVoteResponse(term=3, voter="a", granted=True, vote_history=((2, "r2"),))
        denial = RequestVoteResponse(term=3, voter="b", granted=False, vote_history=((2, "r1"),))
        with apply_mutation("grantor-history-ignored"):
            tally = VoteTally(term=3)
            Election.absorb(tally, grant)
            Election.absorb(tally, denial)
        assert tally.granted == {"a"} and tally.denied == {"b"}
        assert tally.history == {2: {"r1"}}
        assert Election.__dict__["absorb"] is absorb

    def test_weakened_election_detected_and_shrinks(self, tmp_path):
        # The mutation re-opens the stale-quorum election bug this harness
        # originally caught; the monitors must flag it again.
        scenario = SCENARIOS["crashes"]
        outcome = run_once(scenario, seed=0, mutation="election-own-region-only")
        assert not outcome.ok
        assert outcome.violations

        bundle = write_bundle(outcome, tmp_path)
        replayed = replay_bundle(bundle)
        assert not replayed.ok
        assert replayed.digest() == outcome.digest()

        events = [FaultEvent.from_wire(w) for w in outcome.fault_events]
        result = shrink_schedule(
            scenario, 0, events, mutation="election-own-region-only"
        )
        assert result.probes >= 1
        assert len(result.minimal) <= len(result.original)

    def test_read_served_before_apply_is_caught_on_sticky_reads(self):
        # Seed 3 is the witness `--mutate all` reports for this mutation.
        scenario = SCENARIOS["sticky-reads"]
        mutated = run_once(scenario, 3, mutation="read-skips-apply-wait")
        assert "ReadIndexSafety" in mutated.failure_kinds()
        assert run_once(scenario, 3).ok

    def test_a_transaction_the_applier_drops_is_caught_by_engine_agreement(self):
        # Seed 1 is the witness `--mutate all` reports for this mutation.
        scenario = SCENARIOS["leader-crash-loop"]
        mutated = run_once(scenario, 1, mutation="applier-skips-a-transaction")
        assert mutated.failure_kinds() == ["EngineAgreement"]
        assert run_once(scenario, 1).ok

    def test_a_dropped_transaction_shrinks_to_no_fault_at_all(self):
        # The crash loop is not what loses the transaction: the shrinker's
        # first probe, the empty schedule, still fails.
        scenario = SCENARIOS["leader-crash-loop"]
        mutated = run_once(scenario, 1, mutation="applier-skips-a-transaction")
        events = [FaultEvent.from_wire(w) for w in mutated.fault_events]
        result = shrink_schedule(scenario, 1, events, mutation="applier-skips-a-transaction")
        assert events and result.minimal == []
        assert result.needs_no_fault and result.probes == 2

    def test_mutation_does_not_leak_into_clean_run(self):
        with apply_mutation("election-own-region-only"):
            pass
        outcome = run_once(QUICK, seed=3)
        assert outcome.ok


class TestSemiSyncStack:
    """run_once on the prior setup: no Raft-hook monitor is attached, and
    the checks that read only the history, the logs and the engines run
    and can fail."""

    def test_a_faulted_run_is_checked_without_raft_monitors(self):
        outcome = run_once(replace(SCENARIOS["region-partitions"], stack="semisync"), seed=1)
        assert outcome.ok and outcome.committed > 0
        assert outcome.checks["engine_agreements"] > 0
        assert outcome.checks["elections"] == outcome.checks["commits"] == 0

    def test_a_transaction_the_applier_drops_is_caught_by_engine_agreement(self):
        scenario = replace(SCENARIOS["region-partitions"], stack="semisync")
        mutated = run_once(scenario, 1, mutation="applier-skips-a-transaction")
        assert mutated.failure_kinds() == ["EngineAgreement"]

    def test_raft_only_checks_are_refused(self):
        with pytest.raises(ReproError):
            replace(SCENARIOS["proxy-crash"], stack="semisync")


class TestParallelExplore:
    """The --jobs fan-out must be invisible in everything but wall time."""

    def _register_quick(self, monkeypatch):
        scenario = replace(QUICK, name="quick-parallel")
        monkeypatch.setitem(SCENARIOS, "quick-parallel", scenario)

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_parallel_digests_match_serial(self, monkeypatch):
        self._register_quick(monkeypatch)
        serial = explore(["quick-parallel"], [3, 4], jobs=1)
        parallel = explore(["quick-parallel"], [3, 4], jobs=2)
        assert serial.runs == parallel.runs == 2
        assert serial.digests == parallel.digests
        assert serial.checks == parallel.checks

    def test_jobs_zero_uses_auto_pool(self, monkeypatch):
        self._register_quick(monkeypatch)
        report = explore(["quick-parallel"], [3], jobs=0)
        assert report.runs == 1
        assert report.ok

    def test_parallel_bundles_byte_identical(self, tmp_path):
        # A known-failing run (the weakened-election mutation on seed 0,
        # same pairing TestMutations uses) must produce byte-identical
        # repro bundles whether it ran in-process or in a worker.
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = explore(
            ["crashes"], [0, 1], mutation="election-own-region-only",
            bundle_dir=serial_dir, jobs=1,
        )
        parallel = explore(
            ["crashes"], [0, 1], mutation="election-own-region-only",
            bundle_dir=parallel_dir, jobs=2,
        )
        assert serial.failures and parallel.failures
        assert serial.digests == parallel.digests
        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files and serial_files
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()

    def test_sweep_prints_what_the_monitors_checked(self, monkeypatch, capsys):
        from repro.check.__main__ import main

        self._register_quick(monkeypatch)
        assert main(["--scenario", "quick-parallel", "--seeds", "2", "--quiet"]) == 0
        report = explore(["quick-parallel"], [1, 2])
        totals = report.checks["quick-parallel"]
        assert totals["reads"] > 0
        out = capsys.readouterr().out
        assert "checks per scenario, summed over 2 seeds:" in out
        assert f"reads={totals['reads']}" in out

    def test_unknown_scenario_rejected_before_any_run(self):
        with pytest.raises(ReproError):
            explore(["no-such-scenario"], [1], jobs=4)


class TestGrantorHistoryIsLoadBearing:
    """The execution DESIGN.md §9 argues from, built by hand: a leader
    commits in a region that is then cut off, and the only trace of it
    outside is the voting history of the voters that elected it. (No seed
    of the sweep's scenarios isolates a leader within one WAN delay of
    its election, so the witness is constructed, not hunted.)"""

    def run_cut_off_winner(self):
        ring = region_ring()
        suite = InvariantSuite()
        for node in ring.nodes.values():
            node.monitor = suite
            node.election._timeout = lambda: 3.0  # room to start term 2 by hand
        ring.bootstrap("db0")
        ring.host("db0").crash()
        ring.run(1.6)  # stickiness toward db0 has lapsed
        # Term 2: db1 asks first and wins r0's logtailers; db2, the rival,
        # is denied by both, abandons, and keeps no history of the term.
        ring.node("db1").start_election()
        ring.node("db2").start_election()
        ring.run(0.065)
        assert ring.node("db1").is_leader and ring.node("db2").election.vote_history == ()
        # db1's first AppendEntries are still on the WAN when r1 is cut off;
        # it goes on committing through its own region (FlexiRaft).
        ring.net.isolate_region("r1")
        opid, future = ring.node("db1").propose(lambda opid: b"committed-in-r1")
        ring.run(0.05)
        assert future.done() and not future.failed() and opid.index in suite.ledger
        ring.run(12.0)  # r0 and r2 time out and campaign, again and again
        return ring, suite, opid

    def test_without_the_mutation_nobody_outside_the_region_can_win(self):
        ring, suite, opid = self.run_cut_off_winner()
        assert [r.get("node") for r in ring.tracer.of_kind("raft.leader_elected")] == ["db0", "db1"]
        # They did try: every pre-vote learns (2, r1) from r0's grantors.
        assert ring.tracer.count("raft.pre_vote_started") > 2
        assert ring.tracer.count("raft.pre_vote_won") == 0
        assert suite.ok

    def test_with_it_a_leader_without_the_committed_entry_is_caught(self):
        with apply_mutation("grantor-history-ignored"):
            ring, suite, opid = self.run_cut_off_winner()
        assert "LeaderCompleteness" in {v.invariant for v in suite.violations}
        assert any(str(opid.index) in v.detail for v in suite.violations)
