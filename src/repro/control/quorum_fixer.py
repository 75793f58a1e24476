"""Quorum Fixer (§5.3): restore write availability after a shattered
quorum.

A "shattered quorum" is the loss of a majority of the (deliberately
small) FlexiRaft data-commit quorum — e.g. both of the leader's
in-region logtailers plus the leader itself in various combinations.
The tool:

1. queries the attempted writes / current availability of the ring;
2. performs out-of-band checks to find the live entity with the longest
   log (the only safe next leader);
3. forcibly relaxes the election quorum expectations inside Raft so that
   entity can win despite not being able to assemble normal votes;
4. after the promotion succeeds, resets quorum expectations to normal.

It is deliberately *not* run automatically (the paper wants every
shattered quorum root-caused); here it is invoked explicitly by tests
and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ControlPlaneError
from repro.plugin.raft_plugin import MyRaftServer
from repro.raft.types import OpId


@dataclass
class QuorumFixerReport:
    invoked_at: float = 0.0
    chosen: str | None = None
    promoted_at: float | None = None
    refused_reason: str | None = None
    overrides_applied: list = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.promoted_at is not None

    @property
    def restore_seconds(self) -> float | None:
        if self.promoted_at is None:
            return None
        return self.promoted_at - self.invoked_at


class QuorumFixer:
    """The remediation tool. Operates out-of-band: it inspects live
    members' local state directly (the real tool does this over
    administrative connections)."""

    def __init__(self, cluster, conservative: bool = True) -> None:
        self.cluster = cluster
        self.conservative = conservative

    # -- probes ---------------------------------------------------------------

    def _live_services(self) -> dict[str, Any]:
        return {
            name: service
            for name, service in self.cluster.services.items()
            if self.cluster.hosts[name].alive
        }

    def ring_write_available(self) -> bool:
        """Step 1's probe: is there a primary *and* can its data-commit
        quorum still be satisfied by live voters? A leader whose in-region
        logtailers are gone is exactly the shattered-quorum case."""
        primary = self.cluster.primary_service()
        if primary is None:
            return False
        node = primary.node
        live_voters = frozenset(
            name
            for name in node.membership.voter_names()
            if name in self.cluster.hosts and self.cluster.hosts[name].alive
        )
        return node.policy.data_quorum_satisfied(node.name, live_voters, node.membership)

    def _longest_log_member(self, live: dict[str, Any]) -> tuple[str, OpId]:
        """Pick the next leader: longest log wins; among equals prefer a
        database member in a region that can still form an in-region
        data quorum (so the ring is actually healthy afterwards)."""
        candidates: list[tuple[OpId, str]] = []
        for name, service in live.items():
            member = service.node.membership.member(name)
            if member is None or not member.is_voter:
                continue
            candidates.append((service.node.last_opid, name))
        if not candidates:
            raise ControlPlaneError("no live voter found")
        best_opid = max(opid for opid, _ in candidates)
        tied = [name for opid, name in candidates if opid == best_opid]

        def health_rank(name: str) -> tuple[int, int]:
            node = live[name].node
            member = node.membership.member(name)
            region_voters = node.membership.voters_in_region(member.region)
            live_in_region = sum(
                1 for m in region_voters
                if m.name in self.cluster.hosts and self.cluster.hosts[m.name].alive
            )
            region_healthy = live_in_region >= len(region_voters) // 2 + 1
            return (int(region_healthy), int(member.has_storage_engine))

        tied.sort(key=health_rank, reverse=True)
        return tied[0], best_opid

    def _conservative_check(self, chosen: str, chosen_opid: OpId, live: dict[str, Any]) -> str | None:
        """Default safe mode: refuse when we cannot rule out losing
        consensus-committed data. We require a live member of the last
        known leader's region (the previous data-commit quorum) whose log
        is covered by the chosen entity's log."""
        chosen_node = live[chosen].node
        last_leader_region = chosen_node.election.last_known_leader_region
        for name, service in live.items():
            member = service.node.membership.member(name)
            if member is None or member.region != last_leader_region:
                continue
            if service.node.last_opid <= chosen_opid:
                return None  # witnessed quorum member covered: safe
        return (
            f"no live member of last-quorum region {last_leader_region!r} is covered "
            f"by {chosen}'s log; committed data could be lost"
        )

    # -- the fix --------------------------------------------------------------------

    def fix(self):
        """Coroutine: run the remediation; returns a QuorumFixerReport."""
        report = QuorumFixerReport(invoked_at=self.cluster.loop.now)
        # Step 1: query the attempted writes on the ring.
        if self.ring_write_available():
            report.refused_reason = "ring is write-available; nothing to fix"
            return report
        live = self._live_services()
        # Step 2: out-of-band longest-log check.
        chosen, chosen_opid = self._longest_log_member(live)
        report.chosen = chosen
        if self.conservative:
            refusal = self._conservative_check(chosen, chosen_opid, live)
            if refusal is not None:
                report.refused_reason = refusal
                return report
        # Step 3: forcibly change quorum expectations so the chosen entity
        # can become leader despite not winning enough votes.
        live_voters = frozenset(
            name
            for name, service in live.items()
            if service.node.membership.member(name) is not None
            and service.node.membership.member(name).is_voter
        )
        sufficient = frozenset({chosen}) | (live_voters & {chosen})
        for name, service in live.items():
            service.node.force_quorum(sufficient)
            report.overrides_applied.append(name)
        live[chosen].node.start_election(is_transfer=True)
        # Wait for the promotion to complete (writes enabled somewhere).
        deadline = self.cluster.loop.now + 30.0
        while self.cluster.loop.now < deadline:
            yield 0.05
            primary = self.cluster.primary_service()
            if primary is not None:
                report.promoted_at = self.cluster.loop.now
                break
            # Witness interim leaders are fine: the handoff needs the
            # override to stay active until a database takes over.
        # Step 4: reset quorum expectations back to normal.
        for name in report.overrides_applied:
            if self.cluster.hosts[name].alive:
                self.cluster.services[name].node.clear_quorum_override()
        if report.promoted_at is None:
            raise ControlPlaneError(f"quorum fixer failed to restore {chosen}")
        return report

    def run_to_completion(self, timeout: float = 60.0) -> QuorumFixerReport:
        """Convenience: spawn the fix and run the simulation until done."""
        from repro.sim.coro import spawn

        process = spawn(self.cluster.loop, self.fix(), label="quorum-fixer")
        deadline = self.cluster.loop.now + timeout
        while not process.done() and self.cluster.loop.now < deadline:
            self.cluster.run(0.1)
        if not process.done():
            raise ControlPlaneError("quorum fixer did not finish in time")
        return process.result()
