"""Membership-change automation (§2.2).

In MyRaft, membership changes are always initiated by automation: it
detects that a member needs replacing (failure, maintenance, load
balancing), allocates and prepares a new member, and invokes AddMember /
RemoveMember on the leader — one change at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ControlPlaneError, MembershipError
from repro.raft.types import MemberInfo
from repro.sim.host import Host


@dataclass
class ReplacementReport:
    added: str | None = None
    removed: str | None = None
    started_at: float = 0.0
    finished_at: float | None = None
    steps: list = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.finished_at is not None


class MembershipAutomation:
    """Allocate, add, catch up, and remove members of a MyRaft ring."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def allocate_member(self, member: MemberInfo, seed_backup=None):
        """Provision a fresh host + service for a pending AddMember.

        With ``seed_backup`` (a ``control.backup.Backup``) the new host's
        disk is pre-seeded from that image before the service constructs
        over it — the realistic provisioning flow (restore a recent
        backup onto the replacement box, then let Raft ship the rest).
        The member then joins with a non-zero engine watermark, so a
        leader whose log prefix is purged negotiates an incremental
        *delta* snapshot chained on the backup instead of the full image.
        """
        cluster = self.cluster
        if member.name in cluster.hosts:
            raise ControlPlaneError(f"host {member.name!r} already exists")
        host = Host(cluster.loop, cluster.net, member.name, member.region,
                    tracer=cluster.tracer)
        membership_with_new = cluster.current_membership().with_added(member, 0)
        return cluster.provision(host, member, membership_with_new, seed_backup)

    def replace_member(
        self,
        old_name: str,
        new_member: MemberInfo,
        catchup_timeout: float = 60.0,
        seed_backup=None,
    ):
        """Coroutine: the standard replace flow — allocate (from
        ``seed_backup`` if given, see :meth:`allocate_member`), AddMember,
        wait for catch-up, RemoveMember the old one."""
        cluster = self.cluster
        report = ReplacementReport(started_at=cluster.loop.now)
        leader = cluster.primary_service()
        if leader is None:
            raise ControlPlaneError("no leader to drive the membership change")
        self.allocate_member(new_member, seed_backup=seed_backup)
        report.steps.append("allocated")
        _, add_future = leader.node.config_changes.add_member(new_member)
        yield add_future
        report.added = new_member.name
        report.steps.append("added")
        # Wait for the new member to catch up fully.
        deadline = cluster.loop.now + catchup_timeout
        new_node = cluster.services[new_member.name].node
        while cluster.loop.now < deadline:
            if new_node.last_opid.index >= leader.node.commit_index > 0:
                break
            yield 0.1
        else:
            raise ControlPlaneError(f"{new_member.name} did not catch up")
        report.steps.append("caught-up")
        # One change at a time: the add is committed, now remove the old.
        leader = cluster.primary_service()
        if leader is None:
            raise ControlPlaneError("leader lost during replacement")
        if leader.host.name == old_name:
            raise MembershipError("cannot replace the current leader; transfer first")
        _, remove_future = leader.node.config_changes.remove_member(old_name)
        yield remove_future
        report.removed = old_name
        report.steps.append("removed")
        report.finished_at = cluster.loop.now
        return report

    def run_replace(self, old_name: str, new_member: MemberInfo,
                    timeout: float = 120.0) -> ReplacementReport:
        from repro.sim.coro import spawn

        process = spawn(
            self.cluster.loop, self.replace_member(old_name, new_member),
            label="membership-automation",
        )
        deadline = self.cluster.loop.now + timeout
        while not process.done() and self.cluster.loop.now < deadline:
            self.cluster.run(0.1)
        if not process.done():
            raise ControlPlaneError("replacement did not finish in time")
        return process.result()
