"""Snapshot transfer: the node's InstallSnapshot RPCs, and a leader-side
shipper that is pipelined, deduped and rate-throttled.

:class:`SnapshotManager` is the snapshot protocol as the Raft node sees
it: ``RaftNode.handle_message`` hands it the three InstallSnapshot RPCs,
the replicator asks it to ship to a peer behind the purged prefix, and
the service's install cutover ends in its ``adopt``.

One :class:`LeaderSnapshotShipper` per leader tracks an active transfer
session per peer. Three mechanisms replace the v1 stop-and-wait loop:

- **Pipelining.** Each session keeps a window of in-flight chunks,
  opened at 1 and doubled on every clean ack up to
  ``SNAPSHOT_MAX_INFLIGHT_CHUNKS`` (slow-start), collapsing back to 1
  when the retry probe finds the follower silent — the same
  grow/collapse shape as the AppendEntries window
  (``raft/replication.PeerProgress``). Sends are paced against a
  cumulative clock derived from ``SNAPSHOT_MAX_BYTES_PER_SEC``, so the
  window never outruns the transfer rate.

- **Content dedupe.** Every follower response advertises the chunk
  digests it already holds staged; those sequences are marked delivered
  without ever being sent (rsync-style negotiation). This dedupes
  across retries, across leader changes, and across the unchanged
  portion of re-based images.

- **Delta negotiation.** The first response to a full-image offer
  carries the follower's engine watermark. If the follower has usable
  state below our tip, the session switches to a delta image chained on
  that watermark (``produce_delta``); if the follower later rejects the
  delta (base moved, checksum failed), the session falls back to the
  cached full image instead of aborting.

All timers are host-bound (they die with the leader), tracked
per-session so ``cancel_all`` on step-down disarms every pending retry
probe and scheduled chunk send, and every callback re-validates both
session identity and leadership, so stale timers from a superseded
transfer or a deposed leader are inert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.raft.log_cache import LogCache
from repro.raft.messages import InstallSnapshotChunk, InstallSnapshotRequest, InstallSnapshotResponse
from repro.raft.types import OpId, RaftRole
from repro.snapshot.policy import image_covers
from repro.snapshot.producer import SnapshotImage

# Bytes of serialized rows per image chunk.
SNAPSHOT_CHUNK_BYTES = 64 << 10
# Transfer throttle: pacing delay between chunks models disk+network
# pressure so a bootstrap never starves foreground replication.
SNAPSHOT_MAX_BYTES_PER_SEC = 8 << 20
# How often a shipping leader re-probes a silent follower with the
# snapshot offer (the offer doubles as the resume cursor probe).
SNAPSHOT_RETRY_INTERVAL = 0.5
# Pipelined transfer window: chunks a session may have in flight (sent,
# unacked). The window opens at 1 and slow-starts up to this cap,
# collapsing on a retry timeout.
SNAPSHOT_MAX_INFLIGHT_CHUNKS = 8

@dataclass
class _Session:
    """One in-flight transfer to one peer."""

    peer: str
    term: int
    image: SnapshotImage
    last_activity: float
    done: bool = False
    # The full image the session opened with (delta fallback target) and
    # its size — the bytes a v1 transfer would have shipped.
    full_image: SnapshotImage | None = None
    full_bytes: int = 0
    window: int = 1
    negotiated: bool = False  # first response seen; delta decision made
    delta_attempted: bool = False
    delivered: set = field(default_factory=set)  # seqs the follower holds
    sent: set = field(default_factory=set)  # seqs we actually transmitted
    inflight: set = field(default_factory=set)  # sent/scheduled, not yet acked
    timers: list = field(default_factory=list)  # pending Timer handles
    send_clock: float = 0.0  # cumulative pacing clock


class LeaderSnapshotShipper:
    """Streams snapshot images to peers that fell behind the purged log."""

    def __init__(
        self,
        host: Any,
        node: Any,
        produce_image: Callable[[int], SnapshotImage | None],
        produce_delta: Callable[[int, int], SnapshotImage | None] | None = None,
    ) -> None:
        self.host = host
        self.node = node
        self.produce_image = produce_image
        self.produce_delta = produce_delta
        self.image: SnapshotImage | None = None
        self.sessions: dict[str, _Session] = {}
        self.metrics: dict[str, int] = {
            "images_produced": 0,
            "deltas_produced": 0,
            "ships_started": 0,
            "ships_completed": 0,
            "ships_aborted": 0,
            "chunks_sent": 0,
            "chunks_deduped": 0,
            "bytes_sent": 0,
            "bytes_full_equivalent": 0,
            "offer_retries": 0,
            "window_collapses": 0,
            "delta_fallbacks": 0,
        }

    # -- image lifecycle -----------------------------------------------------

    def refresh_image(self) -> SnapshotImage | None:
        """Produce a fresh image of the current engine state (used before
        compaction and whenever the cached image no longer covers the
        purged prefix)."""
        image = self.produce_image(SNAPSHOT_CHUNK_BYTES)
        if image is not None:
            self.metrics["images_produced"] += 1
            self.image = image
        return image

    def _ensure_image(self, first_index: int) -> SnapshotImage | None:
        if image_covers(self.image, first_index):
            return self.image
        self.refresh_image()
        return self.image if image_covers(self.image, first_index) else None

    # -- shipping ------------------------------------------------------------

    def ship_to(self, peer: str, first_index: int) -> bool:
        """Start (or continue) shipping to ``peer``. Returns False when no
        image can cover the purged prefix, so the caller can fall back.

        Transfers always open with the full-image offer: the first
        response carries the follower's engine watermark, and the session
        switches to a delta chained on it when one is producible.
        """
        session = self.sessions.get(peer)
        if session is not None and not session.done:
            return True  # transfer already in flight
        image = self._ensure_image(first_index)
        if image is None:
            return False
        session = _Session(
            peer=peer,
            term=self.node.current_term,
            image=image,
            last_activity=self.host.loop.now,
            full_image=image,
            full_bytes=image.total_bytes,
            send_clock=self.host.loop.now,
        )
        self.sessions[peer] = session
        self.metrics["ships_started"] += 1
        self._send_offer(session)
        self._arm_retry(session)
        return True

    def handle_response(self, peer: str, response: InstallSnapshotResponse) -> OpId | None:
        """Feed a follower response; returns the installed OpId when the
        transfer completed (the node then advances match_index)."""
        session = self.sessions.get(peer)
        if session is None or response.snapshot_id != session.image.snapshot_id:
            return None
        session.last_activity = self.host.loop.now
        if response.done:
            self._drop_session(session)
            self.metrics["ships_completed"] += 1
            self.metrics["bytes_full_equivalent"] += session.full_bytes
            # Advance match only to the image we shipped, regardless of what
            # the follower reported: its log tip may extend past the image
            # with entries this leader has not verified.
            return session.image.last_opid
        if not response.success:
            if session.image.kind == "delta" and session.full_image is not None:
                # Base mismatch or merge-checksum failure on the follower:
                # re-base the session onto the cached full image.
                self.metrics["delta_fallbacks"] += 1
                self._switch_image(session, session.full_image)
                return None
            # Follower rejected (authority change or staging mismatch):
            # drop the session; replication will re-trigger a fresh offer.
            self._drop_session(session)
            self.metrics["ships_aborted"] += 1
            return None
        self._note_progress(session, response)
        if not session.negotiated:
            session.negotiated = True
            if self._maybe_switch_to_delta(session, response.engine_watermark):
                return None
        else:
            self._grow_window(session)
        self._pump(session)
        return None

    def cancel_all(self) -> None:
        """Step-down/teardown: disarm every pending retry probe and
        scheduled chunk send, then orphan the sessions (any callback
        already past the timer heap self-checks and goes inert)."""
        for session in self.sessions.values():
            session.done = True
            self._cancel_timers(session)
        self.sessions.clear()

    def stats(self) -> dict:
        return {**self.metrics, "active_sessions": len(self.sessions)}

    # -- internals -----------------------------------------------------------

    def _session_current(self, session: _Session) -> bool:
        return (
            self.sessions.get(session.peer) is session
            and not session.done
            and self.node.is_leader
            and self.node.current_term == session.term
        )

    def _drop_session(self, session: _Session) -> None:
        session.done = True
        self._cancel_timers(session)
        self.sessions.pop(session.peer, None)

    def _cancel_timers(self, session: _Session) -> None:
        for timer in session.timers:
            timer.cancel()
        session.timers.clear()

    def _track_timer(self, session: _Session, timer: Any) -> None:
        if len(session.timers) > 64:
            session.timers = [t for t in session.timers if not t.cancelled]
        session.timers.append(timer)

    def _note_progress(self, session: _Session, response: InstallSnapshotResponse) -> None:
        """Fold the follower's resume cursor and held-digest advertisement
        into the delivered set; digests we never sent count as deduped."""
        held = set(range(response.next_seq))
        if response.held_digests:
            advertised = set(response.held_digests)
            for seq, digest in enumerate(session.image.chunk_digests):
                if digest in advertised:
                    held.add(seq)
        for seq in held - session.delivered:
            if seq not in session.sent:
                self.metrics["chunks_deduped"] += 1
        session.delivered |= held
        session.inflight -= session.delivered

    def _maybe_switch_to_delta(self, session: _Session, watermark: int) -> bool:
        """First-response negotiation: chain a delta on the follower's
        engine watermark when one is producible and worthwhile."""
        if (
            self.produce_delta is None
            or session.delta_attempted
            or watermark <= 0
            or watermark >= session.image.last_opid.index
        ):
            return False
        session.delta_attempted = True
        delta = self.produce_delta(SNAPSHOT_CHUNK_BYTES, watermark)
        if delta is None:
            return False  # chain broken or re-base policy says full
        self.metrics["deltas_produced"] += 1
        self._switch_image(session, delta)
        return True

    def _switch_image(self, session: _Session, image: SnapshotImage) -> None:
        """Re-point the session at a different image (delta upgrade or
        full fallback) and restart the offer/ack cycle for it."""
        self._cancel_timers(session)
        session.image = image
        session.delivered = set()
        session.sent = set()
        session.inflight = set()
        session.window = 1
        session.send_clock = self.host.loop.now
        self._send_offer(session)
        self._arm_retry(session)

    def _grow_window(self, session: _Session) -> None:
        session.window = min(session.window * 2, SNAPSHOT_MAX_INFLIGHT_CHUNKS)

    def _send_offer(self, session: _Session) -> None:
        image = session.image
        self.host.send(
            session.peer,
            InstallSnapshotRequest(
                term=session.term,
                leader=self.node.name,
                snapshot_id=image.snapshot_id,
                last_opid=image.last_opid,
                members_wire=tuple(image.members_wire),
                config_index=image.config_index,
                total_chunks=image.total_chunks,
                total_bytes=image.total_bytes,
                checksum=image.checksum,
                kind=image.kind,
                base_index=image.base_index,
                state_crc=image.state_crc,
                chunk_digests=tuple(image.chunk_digests),
            ),
        )

    def _arm_retry(self, session: _Session) -> None:
        timer = self.host.call_after(
            SNAPSHOT_RETRY_INTERVAL,
            self._retry_tick,
            session,
            session.last_activity,
        )
        self._track_timer(session, timer)

    def _retry_tick(self, session: _Session, seen_activity: float) -> None:
        if not self._session_current(session):
            return
        if session.last_activity <= seen_activity + 1e-12:
            # No follower response since the last probe: collapse the
            # window, drop scheduled sends (they are presumed lost or
            # pointless), and re-send the offer — its response is the
            # resume cursor that restarts the pipeline.
            self.metrics["offer_retries"] += 1
            if session.window > 1 or session.inflight:
                self.metrics["window_collapses"] += 1
            session.window = 1
            self._cancel_timers(session)
            session.inflight.clear()
            session.send_clock = self.host.loop.now
            self._send_offer(session)
        self._arm_retry(session)

    def _pump(self, session: _Session) -> None:
        """Schedule sends for undelivered chunks up to the window, paced
        so cumulative bytes never exceed ``SNAPSHOT_MAX_BYTES_PER_SEC``."""
        total = session.image.total_chunks
        if len(session.delivered) >= total:
            return  # done response is in flight
        now = self.host.loop.now
        if session.send_clock < now:
            session.send_clock = now
        for seq in range(total):
            if len(session.inflight) >= session.window:
                break
            if seq in session.delivered or seq in session.inflight:
                continue
            session.inflight.add(seq)
            data = session.image.chunks[seq]
            session.send_clock += len(data) / SNAPSHOT_MAX_BYTES_PER_SEC
            timer = self.host.call_after(
                session.send_clock - now, self._send_chunk, session, seq
            )
            self._track_timer(session, timer)

    def _send_chunk(self, session: _Session, seq: int) -> None:
        if not self._session_current(session):
            return
        if seq in session.delivered:
            session.inflight.discard(seq)
            return  # advertised as held after this send was scheduled
        data = session.image.chunks[seq]
        session.sent.add(seq)
        self.metrics["chunks_sent"] += 1
        self.metrics["bytes_sent"] += len(data)
        self.host.send(
            session.peer,
            InstallSnapshotChunk(
                term=session.term,
                leader=self.node.name,
                snapshot_id=session.image.snapshot_id,
                seq=seq,
                data=data,
                is_last=seq == session.image.total_chunks - 1,
            ),
        )


class SnapshotManager:
    """A node's snapshot protocol: the InstallSnapshot RPCs on both sides,
    the leader's decision to ship, and the follower's adoption of an
    installed image.

    Either side is optional: a pure witness could install without ever
    producing, and a node without an engine image callback simply never
    ships. Construction attaches itself as ``node.snapshots`` (replacing
    :class:`repro.raft.hooks.NoSnapshots`).
    """

    def __init__(
        self,
        host: Any,
        node: Any,
        produce_image: Callable[[int], SnapshotImage | None] | None = None,
        install_image: Callable[[SnapshotImage], None] | None = None,
        produce_delta: Callable[[int, int], SnapshotImage | None] | None = None,
        engine_watermark: Callable[[], int] | None = None,
        engine_tables: Callable[[], dict] | None = None,
    ) -> None:
        from repro.snapshot.installer import SnapshotInstaller

        self.host = host
        self.node = node
        self.shipper = (
            LeaderSnapshotShipper(host, node, produce_image, produce_delta)
            if produce_image is not None
            else None
        )
        self.installer = (
            SnapshotInstaller(
                host,
                node,
                install_image,
                engine_watermark=engine_watermark,
                engine_tables=engine_tables,
            )
            if install_image is not None
            else None
        )
        node.snapshots = self

    # -- leader side -----------------------------------------------------------

    def ship_to(self, peer: str) -> bool:
        """Start (or continue) snapshot transfer to a peer whose next_index
        fell below the purged log prefix. False: nothing to ship with."""
        node = self.node
        if self.shipper is None or peer not in node.membership:
            return False
        return self.shipper.ship_to(peer, node.storage.first_index())

    def _on_response(self, response: InstallSnapshotResponse) -> None:
        node = self.node
        if response.term > node.current_term:
            node._step_down(response.term, leader=None)
            return
        if not node.is_leader or node.leader_state is None or self.shipper is None:
            return
        installed = self.shipper.handle_response(response.follower, response)
        if installed is None:
            return
        # The peer now holds everything through the image's OpId:
        # advance match/next past it and replicate the live tail.
        node.metrics["snapshots_shipped"] += 1
        progress = node.leader_state.ensure_peer(response.follower)
        if not progress.answering:
            node._trace("raft.peer_answering", peer=response.follower)
        progress.acked(installed.index)
        progress.rewind()
        node._trace("raft.snapshot_shipped", peer=response.follower, opid=str(installed))
        node._maybe_advance_commit()
        node.replicator.replicate([response.follower], force=True)

    def on_step_down(self) -> None:
        if self.shipper is not None:
            self.shipper.cancel_all()

    # -- follower side ---------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        """The three InstallSnapshot RPCs. An offer or a chunk passes the
        node's leader-authority check first, like an AppendEntries."""
        if isinstance(message, InstallSnapshotResponse):
            self._on_response(message)
            return
        node = self.node
        if not node._accept_leader_authority(message.term, message.leader) or self.installer is None:
            reply = InstallSnapshotResponse(
                term=node.current_term,
                follower=node.name,
                snapshot_id=message.snapshot_id,
                next_seq=0,
                success=False,
            )
        elif isinstance(message, InstallSnapshotRequest):
            reply = self.installer.handle_offer(message)
        else:
            reply = self.installer.handle_chunk(message)
        self.host.send(src, reply)

    def adopt(self, opid: OpId, members_wire: tuple = (), config_index: int = 0) -> None:
        """Align the node's volatile Raft state with a just-installed
        snapshot (the service already re-based ``node.storage``).

        The image's membership (frozen at production) becomes the
        bootstrap config — the log no longer reaches back to a CONFIG
        entry, so the config rebuild must fall through to it.
        """
        node = self.node
        if node.monitor is not None:
            # Before the commit bump below, so the monitor can compare the
            # image against the durable floor the install just replaced.
            node.monitor.on_snapshot_adopted(node, opid)
        if members_wire:
            node.config_changes.keep_as_bootstrap(members_wire, config_index)
        if node.current_term < opid.term:
            node._set_term(opid.term)
        node.cache = LogCache(node.config.log_cache_max_bytes)
        node.config_changes.rebuild()
        if node.role != RaftRole.LEADER:
            node.role = RaftRole.FOLLOWER if node._is_voter else RaftRole.LEARNER
        node.commit_index = max(node.commit_index, opid.index)
        node.metrics["snapshot_installs"] += 1
        node._trace("raft.snapshot_installed", opid=str(opid))
        node.election.reset_timer()

    def stats(self) -> dict:
        """The ``snapshot`` block surfaced through ``RaftNode.stats()``."""
        out: dict = {}
        if self.shipper is not None:
            out["shipper"] = self.shipper.stats()
        if self.installer is not None:
            out["installer"] = dict(self.installer.metrics)
        return out
