"""Self-validation mutations: deliberately weakened safety rules.

A model checker that never fires is indistinguishable from one that
cannot fire. ``python -m repro.check --mutate <name>`` re-runs the
explorer with one protocol safety rule weakened; the harness passes its
self-test only if the monitors detect the injected unsafety and the
shrinker reduces the triggering fault schedule.

Each mutation monkeypatches one protocol decision point inside a context
manager (always restored), leaving every monitor untouched — the
monitors must catch the symptom, not the patch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ReproError


@dataclass(frozen=True)
class Mutation:
    """One weakened safety rule."""

    name: str
    description: str
    #: Applies the patch; returns the undo callable.
    apply: Callable[[], Callable[[], None]]


def _election_own_region_only() -> Callable[[], None]:
    """SINGLE_REGION_DYNAMIC elections need only the candidate's own
    region: last-leader intersection, voting history, and the
    no-knowledge pessimistic fallback are all ignored. This is the
    stale-quorum-knowledge bug class the harness caught in this repo —
    a candidate wins disjointly from the previous leader's data quorum
    and overwrites its committed tail → StateMachineSafety /
    LeaderCompleteness / QuorumIntersection.

    (An earlier commit-without-quorum mutation proved undetectable once
    the election path was hardened: any single acker of a premature
    commit sits inside every future election's required region majority
    and crashed logs are durable, so the weakening cannot surface as
    loss outside a sub-millisecond append-vs-crash race.)"""
    from repro.flexiraft.groups import group_majority, region_groups
    from repro.flexiraft.policy import FlexiMode, FlexiRaftPolicy

    original = FlexiRaftPolicy.election_quorum_satisfied

    def mutated(self, granted, config, context):
        if self.mode != FlexiMode.SINGLE_REGION_DYNAMIC:
            return original(self, granted, config, context)
        groups = region_groups(config)
        candidate = config.member(context.candidate)
        if not groups or candidate is None or not candidate.is_voter:
            return False
        return group_majority(groups.get(candidate.region, []), granted)

    FlexiRaftPolicy.election_quorum_satisfied = mutated

    def undo() -> None:
        FlexiRaftPolicy.election_quorum_satisfied = original

    return undo


def _vote_ignores_log_recency() -> Callable[[], None]:
    """Voters grant to candidates whose log is behind theirs. A stale
    candidate can then win and overwrite committed entries →
    LeaderCompleteness at election time."""
    from repro.raft.election import Election

    original = Election.evaluate

    def mutated(self, req):
        granted, reason = original(self, req)
        if not granted and reason == "log behind":
            return True, "ok"
        return granted, reason

    Election.evaluate = mutated

    def undo() -> None:
        Election.evaluate = original

    return undo


def _double_vote() -> Callable[[], None]:
    """Voters forget who they voted for: two candidates can both collect
    the same grant in one term → ElectionSafety."""
    from repro.raft.election import Election

    original = Election.evaluate

    def mutated(self, req):
        granted, reason = original(self, req)
        if not granted and reason.startswith("voted for"):
            return True, "ok"
        return granted, reason

    Election.evaluate = mutated

    def undo() -> None:
        Election.evaluate = original

    return undo


def _read_skips_apply_wait() -> Callable[[], None]:
    """A ReadIndex read is served as soon as its index is confirmed,
    without waiting for the local engine to apply through it. A member
    whose engine lags the committed log answers from it →
    ReadIndexSafety, and a stale read in the history."""
    from repro.plugin.raft_plugin import MyRaftServer

    original = MyRaftServer._applied_through

    def mutated(self, read_index):
        return True

    MyRaftServer._applied_through = mutated

    def undo() -> None:
        MyRaftServer._applied_through = original

    return undo


def _applier_skips_a_transaction() -> Callable[[], None]:
    """The first data transaction a replica's applier prepares in the run
    is rolled back and failed instead of submitted to the pipeline, and
    the applier's cursor moves on: the lost re-apply of a transaction the
    pipeline failed. Nothing applies it again, so that engine lacks its
    GTID while its peers, at the same OpId, hold it → EngineAgreement."""
    from repro.errors import TransactionAborted
    from repro.mysql.applier import Applier

    original = Applier._submit
    skipped: list = []

    def mutated(self, pipeline_txn):
        if skipped:
            return original(self, pipeline_txn)
        skipped.append(pipeline_txn.opid)
        self.engine.rollback(pipeline_txn.engine_txn)
        pipeline_txn.done.fail_if_pending(TransactionAborted("skipped by the applier"))
        self._last_submitted = pipeline_txn.done

    Applier._submit = mutated

    def undo() -> None:
        Applier._submit = original

    return undo


def _grantor_history_ignored() -> Callable[[], None]:
    """Candidates drop the voting history piggybacked by voters that
    *granted* — the half of the history the election-safety argument
    rests on (DESIGN.md §9): a grantor that helped elect an unheard-of
    term-T leader is the only link between that leader's data quorum and
    this candidate's election quorum. Deniers' history is still absorbed.
    The candidate can then win disjointly from a leader it never heard
    of → LeaderCompleteness / StateMachineSafety."""
    from repro.raft.election import Election

    original = Election.__dict__["absorb"]

    def mutated(tally, resp):
        if resp.granted:
            resp = replace(resp, vote_history=())
        original.__func__(tally, resp)

    Election.absorb = staticmethod(mutated)

    def undo() -> None:
        Election.absorb = original

    return undo


MUTATIONS: dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            "election-own-region-only",
            "elections ignore last-leader region and voting history",
            _election_own_region_only,
        ),
        Mutation(
            "vote-ignores-log-recency",
            "voters grant to candidates with stale logs",
            _vote_ignores_log_recency,
        ),
        Mutation(
            "double-vote",
            "voters forget their vote and grant twice per term",
            _double_vote,
        ),
        Mutation(
            "grantor-history-ignored",
            "candidates drop the voting history reported by their grantors",
            _grantor_history_ignored,
        ),
        Mutation(
            "applier-skips-a-transaction",
            "a replica's applier drops one prepared transaction and moves on",
            _applier_skips_a_transaction,
        ),
        Mutation(
            "read-skips-apply-wait",
            "reads are served without waiting to apply through their ReadIndex",
            _read_skips_apply_wait,
        ),
    )
}


@contextmanager
def apply_mutation(name: str | None):
    """Apply mutation ``name`` for the duration of the block (no-op when
    ``name`` is None)."""
    if name is None:
        yield
        return
    mutation = MUTATIONS.get(name)
    if mutation is None:
        raise ReproError(
            f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}"
        )
    undo = mutation.apply()
    try:
        yield
    finally:
        undo()
