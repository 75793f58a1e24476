"""Raft RPC messages with a wire-size model.

Wire sizes drive the network's byte accounting, which in turn drives the
§4.2.2 proxy-bandwidth experiment. Sizes follow the paper's
back-of-the-envelope framing: a header of a few dozen bytes per RPC,
payload bytes for full entries, ~24 bytes of metadata per ``PROXY_OP``
(term + index + length placeholder) instead of the payload, one member
id per fan-out destination riding on a proxy's own append, and one
member id per rider whose ack the proxy folded into its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.raft.log_storage import LogEntry
from repro.raft.types import OpId

RPC_HEADER_BYTES = 64
PER_ENTRY_OVERHEAD_BYTES = 16
PROXY_OP_BYTES = 24
# One member id (a binary UUID) per fan-out destination, and per rider
# named in a folded ack.
FANOUT_DEST_BYTES = 16
# Per-chunk framing for snapshot transfer: snapshot id + sequence number
# + flags + payload length.
SNAPSHOT_CHUNK_OVERHEAD_BYTES = 32
# One sha256 digest on the wire (manifest chunk list, held-digest
# advertisements in the rsync-style dedupe negotiation).
SNAPSHOT_DIGEST_WIRE_BYTES = 32


@dataclass(frozen=True)
class AppendEntriesRequest:
    """Leader → member replication RPC (also the heartbeat when empty).

    Proxying (§4.2) is one hop. When ``proxy_opids`` is non-empty, this
    is a PROXY_OP message — metadata only, addressed to the proxy, which
    reconstitutes the payload from its own log and sends it on to
    ``final_dest``. It is the only message ever addressed through a
    proxy. ``via`` names the proxy a request came through: the addressee
    answers through it, so the response reaches the leader by way of the
    region's head.

    ``fanout`` names in-region members whose window is this very
    ``(prev_opid, entries)``: the addressed proxy forwards the request it
    holds to each of them, so the region costs one WAN message.
    ``degraded_through`` is non-zero on the heartbeat a proxy sends in
    place of a PROXY_OP it could not reconstitute: the index through
    which its log cannot serve this destination. The destination echoes
    it, so the leader routes around exactly that far.
    """

    term: int
    leader: str
    prev_opid: OpId
    commit_opid: OpId
    entries: tuple = ()  # tuple[LogEntry, ...]
    proxy_opids: tuple = ()  # tuple[OpId, ...]
    final_dest: str = ""
    via: str = ""
    fanout: tuple = ()  # tuple[str, ...]
    degraded_through: int = 0

    @property
    def is_heartbeat(self) -> bool:
        return not self.entries and not self.proxy_opids

    @property
    def is_proxy_op(self) -> bool:
        return bool(self.proxy_opids)

    @property
    def wire_size(self) -> int:
        size = RPC_HEADER_BYTES
        for entry in self.entries:
            size += PER_ENTRY_OVERHEAD_BYTES + entry.size_bytes
        size += PROXY_OP_BYTES * len(self.proxy_opids)
        size += FANOUT_DEST_BYTES * len(self.fanout)
        return size


@dataclass(frozen=True)
class AppendEntriesResponse:
    """Member → leader ack/nack, sent to the request's ``via`` when it
    came through a proxy.

    ``leader`` is the final addressee: a proxy that receives a response
    for another leader relays it there (or folds it, below).
    ``degraded_through`` echoes the request's: the proxy it came through
    cannot serve this follower's windows through that index.

    ``riders`` names the members behind a region's head whose successful
    acks of this very ``last_opid`` the head folded into its own (the
    response side of the request's ``fanout``): one member id each on the
    wire instead of a response each. ``wire_size`` is set by whoever
    builds a folded response — a plain int, not a property, because
    the network reads it once per send.
    """

    term: int
    follower: str
    success: bool
    last_opid: OpId
    leader: str = ""
    degraded_through: int = 0
    riders: tuple = ()  # tuple[str, ...]

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class InstallSnapshotRequest:
    """Leader → follower: offer of a snapshot covering the log through
    ``last_opid``.

    Sent before any chunk (and re-sent as the retry/resume probe). The
    follower answers with the lowest chunk it still needs plus the
    digests it already holds, which makes the transfer resumable across
    follower crashes *and* dedupable: staged chunks survive on the
    simulated disk and only content the follower lacks is re-shipped.

    ``kind`` distinguishes a full image from a delta chained on
    ``base_index``; ``chunk_digests`` is the content-addressed manifest
    the follower verifies each arriving chunk against.
    """

    term: int
    leader: str
    snapshot_id: str
    last_opid: OpId
    members_wire: tuple = ()  # tuple[(name, region, member_type, has_engine)]
    config_index: int = 0
    total_chunks: int = 0
    total_bytes: int = 0
    checksum: str = ""
    kind: str = "full"  # "full" | "delta"
    base_index: int = 0  # delta only: engine watermark the delta applies over
    state_crc: int = 0  # content checksum of the (merged) installed state
    chunk_digests: tuple = ()  # tuple[str, ...] sha256 hex per chunk

    @property
    def wire_size(self) -> int:
        # Header + manifest (opid, counts, checksum) + per-member metadata
        # + the content-addressed chunk digest list.
        return (
            RPC_HEADER_BYTES
            + 48
            + PROXY_OP_BYTES * len(self.members_wire)
            + SNAPSHOT_DIGEST_WIRE_BYTES * len(self.chunk_digests)
        )


@dataclass(frozen=True)
class InstallSnapshotChunk:
    """Leader → follower: one byte-range of the serialized engine image."""

    term: int
    leader: str
    snapshot_id: str
    seq: int
    data: bytes
    is_last: bool = False

    @property
    def wire_size(self) -> int:
        return RPC_HEADER_BYTES + SNAPSHOT_CHUNK_OVERHEAD_BYTES + len(self.data)


@dataclass(frozen=True)
class InstallSnapshotResponse:
    """Follower → leader: progress ack for an offer or chunk.

    ``next_seq`` is the lowest chunk sequence the follower still needs
    (the resume cursor). ``held_digests`` advertises chunk content the
    follower already has staged (from this transfer, an aborted one, or
    a prior leader's) so the shipper can skip shipping it; and
    ``engine_watermark`` reports the follower's engine apply position so
    the shipper can switch the session to a delta chained on it. ``done``
    reports a completed install, with ``last_opid`` echoing the installed
    image's OpId so the leader can advance match_index without replaying
    the shipped prefix.
    """

    term: int
    follower: str
    snapshot_id: str
    next_seq: int
    success: bool = True
    done: bool = False
    last_opid: OpId = field(default_factory=OpId.zero)
    held_digests: tuple = ()  # tuple[str, ...] sha256 hex the follower holds
    engine_watermark: int = 0  # follower's last committed engine op index

    @property
    def wire_size(self) -> int:
        return RPC_HEADER_BYTES + SNAPSHOT_DIGEST_WIRE_BYTES * len(self.held_digests)


@dataclass(frozen=True)
class RequestVoteRequest:
    """Candidate → voter. Covers real, pre- and mock elections.

    Mock elections (§4.3): ``is_mock`` requests are pre-votes initiated on
    behalf of a TransferLeadership target; ``cursor`` carries the current
    leader's snapshot of its log tail, and voters apply the modified rule
    that rejects the vote when they lag the cursor in the candidate's
    region.
    """

    term: int
    candidate: str
    last_opid: OpId
    is_pre_vote: bool = False
    is_mock: bool = False
    cursor: OpId | None = None
    # Set during TransferLeadership: bypasses leader-stickiness checks.
    is_leadership_transfer: bool = False

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class RequestVoteResponse:
    """Voter → candidate.

    Voters piggyback their newest leader knowledge (term + region) plus
    their retained voting history so a FlexiRaft candidate can upgrade
    its required election quorum when its own last-known-leader
    information is stale — the voting-history mechanism (§4.1).
    """

    term: int
    voter: str
    granted: bool
    is_pre_vote: bool = False
    is_mock: bool = False
    reason: str = ""
    last_leader_term: int = 0
    last_leader_region: str | None = None
    # (term, region) pairs for every real vote this voter granted at terms
    # newer than its last-known leader — the candidates that *might* have
    # won elections the voter never heard the outcome of. The candidate
    # must intersect each such region's data quorum (§4.1 voting history).
    vote_history: tuple = ()

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class VoteRetraction:
    """Failed candidate → its grantors: forget my candidacy at ``term``.

    Once a candidate abandons an election (it can no longer be won, the
    vote timeout, or a step-down while still a candidate) it discards its
    tally and can never win that term, so grantors may safely drop the
    (term, region) entry from their voting history — without this, a
    real vote granted toward an unreachable region would force every
    later election to intersect that region until it heals. A grant that
    reaches the candidate after the abandonment is answered with one
    too. ``voted_for`` itself is NOT cleared: the one-vote-per-term rule
    still stands. A grantor that still knows no leader for the term also
    stops waiting a full detection window for the leader that never was."""

    term: int
    candidate: str

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class TimeoutNowRequest:
    """Leader → transfer target: start a real election immediately (the
    TransferLeadership trigger)."""

    term: int
    leader: str

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class ReadProbeRequest:
    """Leader → voter: leadership-confirmation probe (``repro.reads``).

    One probe round with a data quorum of acks confirms the sender was
    still the term-``term`` leader when the probes were sent — the
    ReadIndex barrier. ``round_id`` ties acks to one batch of waiting
    reads."""

    term: int
    leader: str
    round_id: int

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class ReadProbeResponse:
    """Voter → leader: probe ack. ``success`` is False when the voter has
    moved to a newer term (carried in ``term``), which demotes the
    sender exactly like a rejected AppendEntries."""

    term: int
    voter: str
    round_id: int
    success: bool

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class ReadIndexRequest:
    """Follower/learner → leader: fetch a confirmed ReadIndex so the
    requester can serve a read locally once its applier reaches it.
    Sent straight to the leader, and answered straight back: it is
    header-sized, so no hop on the region tree could batch it."""

    term: int
    requester: str
    request_id: int

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class ReadIndexResponse:
    """Leader → requester: the confirmed ReadIndex, or a refusal when the
    addressee is not (or no longer) the leader."""

    term: int
    leader: str
    request_id: int
    read_index: int
    success: bool = True

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class MockElectionRequest:
    """Current leader → intended new leader: run a mock election round
    with the leader's cursor snapshot before TransferLeadership begins."""

    term: int
    leader: str
    cursor: OpId

    wire_size: int = RPC_HEADER_BYTES


@dataclass(frozen=True)
class MockElectionResult:
    """Transfer target → current leader: whether the mock round won."""

    term: int
    candidate: str
    won: bool
    reason: str = ""

    wire_size: int = RPC_HEADER_BYTES
