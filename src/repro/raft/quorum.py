"""Quorum policies.

The Raft node never hardcodes "majority of voters": it consults a
:class:`QuorumPolicy` strategy for both data-commit and leader-election
decisions. Vanilla Raft majority lives here; FlexiRaft's region-based
policies live in :mod:`repro.flexiraft.policy` and slot into the same
interface — that substitutability *is* the paper's §4.1 design, and it
gives the quorum-mode ablation experiment for free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.raft.membership import MembershipConfig


@dataclass(frozen=True)
class ElectionContext:
    """What a candidate knows when tallying votes.

    ``last_leader_region`` is the region of the newest leader the
    candidate has learned of (own history, upgraded by information
    piggybacked on vote responses); None means unknown, which forces
    pessimistic quorums in FlexiRaft.

    ``possible_leader_regions`` are the regions of candidates that were
    granted real votes at terms *newer* than that last-known leader —
    any of them might have won an election nobody in this tally heard
    the outcome of, so their data quorums must also be intersected. A
    rival's votes in the tally's own term are not among them: that rival
    wins only if this candidate does not.
    """

    candidate: str
    last_leader_region: str | None = None
    possible_leader_regions: frozenset = frozenset()


class QuorumPolicy(ABC):
    """Strategy for data-commit and leader-election quorums."""

    @abstractmethod
    def data_quorum_satisfied(
        self, leader: str, ackers: frozenset, config: MembershipConfig
    ) -> bool:
        """True when ``ackers`` (voter names, leader's self-vote included)
        consensus-commit an entry replicated by ``leader``."""

    @abstractmethod
    def data_quorum_voters(self, leader: str, config: MembershipConfig) -> list[str]:
        """The voters whose acks ``data_quorum_satisfied`` counts for
        ``leader``: nobody else's answer can decide a round, so they are
        the only ones worth asking (ReadIndex probes go to these)."""

    @abstractmethod
    def election_quorum_satisfied(
        self, granted: frozenset, config: MembershipConfig, context: ElectionContext
    ) -> bool:
        """True when the granted votes elect ``context.candidate``."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable name for traces and experiment output."""


def majority_count(total: int) -> int:
    return total // 2 + 1


class MajorityQuorum(QuorumPolicy):
    """Vanilla Raft: majority of all voters for both quorums."""

    def data_quorum_satisfied(
        self, leader: str, ackers: frozenset, config: MembershipConfig
    ) -> bool:
        voters = set(config.voter_names())
        return len(ackers & voters) >= majority_count(len(voters))

    def data_quorum_voters(self, leader: str, config: MembershipConfig) -> list[str]:
        return config.voter_names()

    def election_quorum_satisfied(
        self, granted: frozenset, config: MembershipConfig, context: ElectionContext
    ) -> bool:
        voters = set(config.voter_names())
        return len(granted & voters) >= majority_count(len(voters))

    def describe(self) -> str:
        return "majority"


class ForcedQuorum(QuorumPolicy):
    """Quorum Fixer override (§5.3): treat a fixed set of members as a
    sufficient quorum for elections, regardless of the normal rules.

    Data commits keep the wrapped policy — the override only exists to
    get a designated healthy member *elected*; it is reset immediately
    after promotion.
    """

    def __init__(self, inner: QuorumPolicy, sufficient_voters: frozenset) -> None:
        self._inner = inner
        self._sufficient = sufficient_voters

    def data_quorum_satisfied(
        self, leader: str, ackers: frozenset, config: MembershipConfig
    ) -> bool:
        return self._inner.data_quorum_satisfied(leader, ackers, config)

    def data_quorum_voters(self, leader: str, config: MembershipConfig) -> list[str]:
        return self._inner.data_quorum_voters(leader, config)

    def election_quorum_satisfied(
        self, granted: frozenset, config: MembershipConfig, context: ElectionContext
    ) -> bool:
        return self._sufficient <= granted

    def describe(self) -> str:
        return f"forced({','.join(sorted(self._sufficient))})"
