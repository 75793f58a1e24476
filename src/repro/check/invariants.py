"""Raft safety monitors (the tentpole's invariant layer).

An :class:`InvariantSuite` attaches to every :class:`repro.raft.node.RaftNode`
in a replicaset and observes three kinds of protocol events — leader
elections, commit advances, snapshot adoptions — plus an end-of-run whole
cluster sweep. Monitors never change behaviour: they record
:class:`Violation` objects and keep going, so one run can surface every
consequence of a bug rather than dying on the first.

Invariants (the names appear in violations, bundles, and DESIGN.md):

==========================  ====================================================
ElectionSafety              at most one leader per term
LogMatching                 same (term, index) ⇒ byte-identical entry
LeaderCompleteness          a new leader's log holds every committed entry
StateMachineSafety          only one entry is ever committed at each index
GtidUniqueness              no GTID is carried by two committed entries
                            (different OpIds): replicas skip a GTID they
                            already executed, so a reissued one loses a write
QuorumIntersection          a new leader's vote quorum intersects the previous
                            leader's FlexiRaft data quorum (so the deposed
                            leader cannot still commit behind the ring's back)
SnapshotMonotonicity        installing a snapshot never regresses a member's
                            durable commit point
DeltaInstallSafety          an engine seeded via a delta install hashes
                            byte-identical to the full image it claims to equal
ReadIndexSafety             a read is never served before the engine has
                            applied every data entry through its ReadIndex
EngineAgreement             (end of run) live databases whose engines stand
                            at the same OpId executed the same GTIDs and hold
                            the same rows
CatchUpAfterHeal            (liveness, scenarios that ask for it) a bounded
                            time after a scripted heal, every live member
                            holds what was committed at the heal
LeaderWithin                (liveness, scenarios that ask for it) a bounded
                            time after the primary crashes a writable primary
                            exists (or one promoted since crashed too), if
                            the members still up can elect one
==========================  ====================================================

The commit *ledger* — ``index -> (term, payload crc)`` recorded the first
time any member commits an index — is the shared evidence base:
StateMachineSafety and committed-prefix LogMatching fall out of comparing
each member's commit advances against it, and LeaderCompleteness replays
it against a fresh leader's log.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import LogTruncatedError
from repro.raft.log_storage import ENTRY_KIND_DATA
from repro.raft.quorum import ElectionContext
from repro.raft.types import OpId

#: Hard cap on recorded violations: a genuinely broken protocol violates
#: invariants on every commit, and the explorer only needs the first few
#: to build a bundle.
MAX_VIOLATIONS = 64


@dataclass(frozen=True)
class Violation:
    """One observed safety violation."""

    invariant: str
    time: float
    node: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.time:.6f}] {self.invariant} at {self.node}: {self.detail}"

    def to_wire(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "node": self.node,
            "detail": self.detail,
        }


@dataclass
class _Election:
    """What we saw when a node won a term."""

    leader: str
    granted: frozenset
    membership: Any  # MembershipConfig at the moment of election
    overridden: bool  # quorum-fixer override active (intersection waived)


def _digest(payload: bytes) -> int:
    return zlib.crc32(payload)


@dataclass
class InvariantSuite:
    """Cluster-wide safety monitor. One instance per simulated run."""

    violations: list[Violation] = field(default_factory=list)
    #: term -> winner (ElectionSafety evidence).
    leaders: dict[int, str] = field(default_factory=dict)
    #: Commit ledger: index -> (term, payload crc32).
    ledger: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: GTID -> OpId of the committed entry carrying it (GtidUniqueness
    #: evidence; only logs that know their entries' GTIDs feed it).
    gtids: dict[Any, OpId] = field(default_factory=dict)
    #: Per-member durable commit floor (survives crash/restart; reset only
    #: when a member is reimaged from a wiped disk).
    commit_floor: dict[str, int] = field(default_factory=dict)
    checks: dict[str, int] = field(
        default_factory=lambda: {
            "elections": 0,
            "commits": 0,
            "snapshots": 0,
            "reads": 0,
            "delta_installs": 0,
            "catch_ups": 0,
            "failovers": 0,
            "engine_agreements": 0,
        }
    )
    _elections: dict[int, _Election] = field(default_factory=dict)

    # -- wiring --------------------------------------------------------------

    def attach(self, cluster) -> None:
        """Monitor every current member of ``cluster`` and register on the
        cluster so reimaged members are re-attached automatically."""
        cluster.monitor = self
        for service in cluster.services.values():
            service.node.monitor = self

    def reset_member(self, name: str) -> None:
        """Forget per-member floors after a disk wipe (reimage): the fresh
        member legitimately starts from nothing."""
        self.commit_floor.pop(name, None)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _record(self, invariant: str, member, detail: str) -> None:
        """``member``: the RaftNode that violated, or the Host of a
        service (the end-of-run checks read either stack's services)."""
        if len(self.violations) >= MAX_VIOLATIONS:
            return
        self.violations.append(
            Violation(
                invariant=invariant,
                time=getattr(member, "host", member).loop.now,
                node=member.name,
                detail=detail,
            )
        )

    # -- RaftNode hooks ------------------------------------------------------

    def on_leader_elected(self, node, granted: frozenset) -> None:
        """Called from ``_become_leader`` with the vote-grant set."""
        self.checks["elections"] += 1
        term = node.current_term
        prior = self.leaders.get(term)
        if prior is not None and prior != node.name:
            self._record(
                "ElectionSafety",
                node,
                f"term {term} already has leader {prior}, now also {node.name}",
            )
        else:
            self.leaders[term] = node.name
        overridden = node._quorum_override is not None
        self._check_leader_completeness(node)
        self._check_quorum_intersection(node, term, granted, overridden)
        self._elections[term] = _Election(
            leader=node.name,
            granted=granted,
            membership=node.membership,
            overridden=overridden,
        )

    def _check_leader_completeness(self, node) -> None:
        """Every committed (index, term) must appear in the new leader's
        log — or lie below its snapshot base, which only covers committed
        prefixes by construction."""
        first = node.storage.first_index()
        for index, (term, crc) in self.ledger.items():
            if index < first:
                continue
            try:
                entry = node.storage.entry(index)
            except LogTruncatedError:  # pragma: no cover - first_index race
                continue
            if entry is None:
                self._record(
                    "LeaderCompleteness",
                    node,
                    f"committed index {index} (term {term}) missing from new leader's log",
                )
            elif entry.opid.term != term:
                self._record(
                    "LeaderCompleteness",
                    node,
                    f"committed index {index} has term {term} but leader holds "
                    f"term {entry.opid.term}",
                )
            elif _digest(entry.payload) != crc:
                self._record(
                    "LogMatching",
                    node,
                    f"leader's entry at {entry.opid} differs from the committed payload",
                )

    def _check_quorum_intersection(
        self, node, term: int, granted: frozenset, overridden: bool
    ) -> None:
        """The FlexiRaft intersection argument, checked directly: take the
        voters that did NOT grant this election. If, from the previous
        leader's point of view (its config, its region), those voters
        alone satisfy a data quorum, the deposed leader can still commit
        entries no granter has heard of — the exact split-brain the
        last-known-leader election rule exists to prevent."""
        prior_terms = [t for t in self._elections if t < term]
        if not prior_terms or overridden:
            return
        prev = self._elections[max(prior_terms)]
        if prev.overridden:
            return  # quorum fixer deliberately forced a non-intersecting quorum
        prev_voters = frozenset(m.name for m in prev.membership.voters())
        unaware = prev_voters - granted
        if node.policy.data_quorum_satisfied(prev.leader, unaware, prev.membership):
            self._record(
                "QuorumIntersection",
                node,
                f"term {term} won with grants {sorted(granted)} but previous leader "
                f"{prev.leader} still holds a data quorum among {sorted(unaware)}",
            )

    def on_commit_advance(self, node, old_index: int, new_index: int) -> None:
        """Called whenever a node's commit index advances (leader quorum
        or follower commit-pointer). Verifies the newly committed range
        against the ledger."""
        self.checks["commits"] += 1
        for index in range(old_index + 1, new_index + 1):
            try:
                entry = node.storage.entry(index)
            except LogTruncatedError:
                continue  # below a snapshot base; covered by on_snapshot_adopted
            if entry is None:
                self._record(
                    "LogMatching",
                    node,
                    f"commit index advanced to {index} beyond the log "
                    f"(last={node.storage.last_opid()})",
                )
                break
            digest = (entry.opid.term, _digest(entry.payload))
            known = self.ledger.get(index)
            if known is None:
                self.ledger[index] = digest
                self._check_gtid_unique(node, entry.opid)
            elif known[0] != digest[0]:
                self._record(
                    "StateMachineSafety",
                    node,
                    f"index {index} committed at term {known[0]} elsewhere, "
                    f"term {digest[0]} here",
                )
            elif known[1] != digest[1]:
                self._record(
                    "LogMatching",
                    node,
                    f"index {index} term {digest[0]} committed with two different payloads",
                )
        floor = self.commit_floor.get(node.name, 0)
        if new_index > floor:
            self.commit_floor[node.name] = new_index

    def _check_gtid_unique(self, node, opid: OpId) -> None:
        gtid_at = getattr(node.storage, "gtid_at", None)
        gtid = gtid_at(opid.index) if gtid_at is not None else None
        if gtid is None:
            return
        first = self.gtids.setdefault(gtid, opid)
        if first != opid:
            self._record(
                "GtidUniqueness",
                node,
                f"GTID {gtid} committed at {first} is carried again by {opid}",
            )

    def on_consistent_read(self, node, read_index: int, applied_index: int) -> None:
        """Called by the plugin at the instant a read is served from the
        local engine (repro.reads): every MyRaft read.

        ReadIndexSafety: a read must never be served before the engine has
        applied through its ReadIndex.
        """
        self.checks["reads"] += 1
        # A watermark/read-index gap is only a violation when it holds a
        # *data* entry: no-ops, config changes and rotations never advance
        # the engine's last-committed opid, so the engine state already
        # covers a read index that points at one.
        if applied_index < read_index and self._gap_holds_data(
            node, applied_index, read_index
        ):
            self._record(
                "ReadIndexSafety",
                node,
                f"read served at index {read_index} with engine applied "
                f"only through {applied_index}",
            )

    @staticmethod
    def _gap_holds_data(node, applied_index: int, read_index: int) -> bool:
        for index in range(applied_index + 1, read_index + 1):
            try:
                entry = node.storage.entry(index)
            except LogTruncatedError:
                continue  # compacted below the snapshot base: applied by construction
            if entry is None or entry.kind == ENTRY_KIND_DATA:
                return True
        return False

    def on_snapshot_adopted(self, node, opid: OpId) -> None:
        """Called at the top of ``adopt_snapshot`` — before the node bumps
        its commit index — so ``commit_floor`` still reflects the durable
        state the install just replaced."""
        self.checks["snapshots"] += 1
        floor = self.commit_floor.get(node.name, 0)
        if opid.index < floor:
            self._record(
                "SnapshotMonotonicity",
                node,
                f"installed image at {opid} below durable commit floor {floor}",
            )
        else:
            self.commit_floor[node.name] = opid.index
        known = self.ledger.get(opid.index)
        if known is not None and known[0] != opid.term:
            self._record(
                "StateMachineSafety",
                node,
                f"snapshot image ends at {opid} but index {opid.index} "
                f"committed at term {known[0]}",
            )

    def on_delta_installed(
        self, node, snapshot_id: str, expected_crc: int, actual_crc: int
    ) -> None:
        """Called by the snapshot installer right after a delta-driven
        cutover, with the producer's merged-state checksum and a fresh
        hash of the engine that actually resulted. Any difference means
        the base + delta did not reconstruct the full image — the
        incremental path silently diverged from the state it claims to
        equal."""
        self.checks["delta_installs"] += 1
        if actual_crc != expected_crc:
            self._record(
                "DeltaInstallSafety",
                node,
                f"delta install {snapshot_id} left engine crc {actual_crc}, "
                f"expected {expected_crc}",
            )

    # -- liveness after a heal -------------------------------------------------

    def watch_catch_up(self, cluster, events, within: float) -> None:
        """For every heal in a scripted fault schedule: note the primary's
        commit index at the heal and, ``within`` seconds later, require
        every live member's log to reach it."""
        for event in events:
            if event.kind in ("restart", "resume", "heal", "heal_regions"):
                cluster.loop.call_at(event.time, self._mark_heal, cluster, within)

    def _mark_heal(self, cluster, within: float) -> None:
        primary = cluster.primary_service()
        if primary is not None:
            cluster.loop.call_after(
                within, self._check_caught_up, cluster, primary.node.commit_index, within
            )

    def _check_caught_up(self, cluster, mark: int, within: float) -> None:
        self.checks["catch_ups"] += 1
        for name, service in cluster.services.items():
            host = cluster.hosts[name]
            if host.alive and not host.paused and service.node.last_opid.index < mark:
                self._record(
                    "CatchUpAfterHeal",
                    service.node,
                    f"holds {service.node.last_opid.index} of {mark} committed at "
                    f"the heal {within:g}s ago",
                )

    # -- liveness after a primary crash ----------------------------------------

    def watch_leader(self, cluster, within: float) -> None:
        """Whenever a leader's host crashes, open a window of ``within``
        seconds. It ends met when a writable primary exists at its end,
        or when a primary that became writable inside it crashes (that
        crash opens a window of its own). Otherwise the voters then up
        and reachable must not have been able to elect one of them
        against the crashed leader."""
        promoted_at: dict[str, float] = {}  # writable primaries, by name
        open_windows: list[list] = []  # [opened at, met]

        def on_trace(record) -> None:
            name = record.get("host")
            if record.kind == "myraft.promoted":
                promoted_at[name] = record.time
            elif record.kind == "myraft.demoted":
                promoted_at.pop(name, None)
            elif record.kind == "host.crash":
                since = promoted_at.pop(name, None)
                if since is not None:
                    for window in open_windows:
                        window[1] = window[1] or window[0] <= since
                node = cluster.services[name].node
                if node.is_leader:
                    window = [record.time, False]
                    open_windows.append(window)
                    cluster.loop.call_after(
                        within, self._check_leader, cluster, node, within, window, open_windows
                    )

        cluster.tracer.subscribe(on_trace)

    def _check_leader(self, cluster, crashed, within: float, window, open_windows) -> None:
        open_windows.remove(window)
        self.checks["failovers"] += 1
        if window[1] or cluster.primary_service() is not None:
            return
        membership = cluster.current_membership()
        lost = membership.member(crashed.name)
        up = [
            m.name for m in membership.voters()
            if cluster.hosts[m.name].alive and not cluster.hosts[m.name].paused
        ]
        for name in up:
            reachable = frozenset(v for v in up if not cluster.net.path_blocked(name, v))
            context = ElectionContext(name, lost.region if lost is not None else None)
            if crashed.policy.election_quorum_satisfied(reachable, membership, context):
                self._record(
                    "LeaderWithin",
                    crashed,
                    f"no writable primary {within:g}s after the crash although "
                    f"{name} could be elected by {sorted(reachable)}",
                )
                return

    # -- end-of-run sweep ----------------------------------------------------

    def check_cluster(self, cluster) -> None:
        """Whole-cluster LogMatching over live members' shared index
        ranges (covers the uncommitted tail the per-commit checks never
        see), a ledger audit of every live log, and EngineAgreement. It
        reads only logs and engines, so it runs on the semi-sync stack
        too, whose logs hold OpIds as well (term = generation); there the
        ledger is empty and the audit vacuous."""
        services = [
            service for name, service in cluster.services.items()
            if cluster.hosts[name].alive and service.storage.last_opid().index > 0
        ]
        for service in services:
            storage = service.storage
            first = storage.first_index()
            last = storage.last_opid().index
            for index, (term, crc) in self.ledger.items():
                if index < first or index > last:
                    continue
                entry = storage.entry(index)
                if entry is None:
                    continue
                if entry.opid.term == term and _digest(entry.payload) != crc:
                    self._record(
                        "LogMatching",
                        service.host,
                        f"entry {entry.opid} diverges from the committed payload",
                    )
        self._check_logs_agree(services)
        self._check_engines(cluster)

    def _check_engines(self, cluster) -> None:
        """EngineAgreement: engines that applied through the same OpId
        must have executed the same GTIDs and hold the same rows. A
        transaction the applier moved past without committing (a lost
        re-apply) leaves a gap no log check sees."""
        first_at: dict[OpId, Any] = {}
        for service in cluster.database_services():
            if not service.host.alive:
                continue
            engine = service.mysql.engine
            first = first_at.setdefault(engine.last_committed_opid, service)
            if first is service:
                continue
            self.checks["engine_agreements"] += 1
            reference = first.mysql.engine
            if engine.executed_gtids != reference.executed_gtids:
                what = (
                    f"executed GTIDs {engine.executed_gtids} vs "
                    f"{reference.executed_gtids}"
                )
            elif service.mysql.checksum() != first.mysql.checksum():
                what = "engine checksums"
            else:
                continue
            self._record(
                "EngineAgreement",
                service.host,
                f"{service.host.name} and {first.host.name} both applied through "
                f"{engine.last_committed_opid} but disagree on {what}",
            )

    def _check_logs_agree(self, services) -> None:
        """LogMatching across the live logs, in one pass: an entry must
        carry the same payload as the first log seen holding its (index,
        term)."""
        first_at: dict[tuple[int, int], tuple[bytes, Any]] = {}
        for service in services:
            storage = service.storage
            for index in range(storage.first_index(), storage.last_opid().index + 1):
                entry = storage.entry(index)
                if entry is None:
                    continue
                payload, holder = first_at.setdefault(
                    (index, entry.opid.term), (entry.payload, service)
                )
                if payload != entry.payload:
                    self._record(
                        "LogMatching",
                        service.host,
                        f"{holder.host.name} and {service.host.name} disagree on "
                        f"entry {entry.opid} payload",
                    )
                    break  # one sample per log is enough evidence

    def summary(self) -> dict[str, Any]:
        return {
            "violations": [v.to_wire() for v in self.violations],
            "checks": dict(self.checks),
            "terms_seen": len(self.leaders),
            "committed_indexes": len(self.ledger),
        }
