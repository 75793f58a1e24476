"""Follower-side snapshot install: durable staging + atomic cutover.

Chunks land in a durable content-addressed *pool* (digest → bytes) in
the ``snapshot.staging`` namespace as they arrive, so a follower
crashing mid-transfer resumes from what its disk already holds — the
leader's next offer probe doubles as the resume cursor exchange. Because
the pool is keyed by content rather than by (transfer, seq), chunks
staged for one transfer satisfy any later transfer that lists the same
digests: a new leader's image, a retry after an abort, or the unchanged
portion of a re-based image. Every response advertises the held digests
so the shipper never re-sends content the follower already has.

A ``delta`` image finishes differently: the installer checks its own
engine watermark still equals the delta's base, merges the upserts and
deletes over its local tables, proves the merged state's content
checksum matches the producer's ``state_crc``, and only then cuts over —
installing the merged state exactly as if a full image had shipped. Any
mismatch rejects the transfer (``success=False``), which makes the
shipper fall back to the full image automatically. The
``DeltaInstallSafety`` monitor hook re-hashes the engine *after* the
cutover, so a delta install that is not byte-identical to the equivalent
full install is a recorded invariant violation, not a silent divergence.

The final cutover (wipe volatile engine state, seed the durable
namespaces, re-base the log) runs synchronously inside one simulation
event, which is what makes it atomic under the crash model: a host can
only crash *between* events, so recovery always sees either the
pre-install or the post-install disk, never a torn one.

:func:`seed_engine_namespaces` is the shared seeding helper — the same
code path backs ``control.backup.restore_member`` (operator-driven
restore) and the in-protocol installer (leader-driven state transfer).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Callable

from repro.errors import LogTruncatedError, SnapshotIntegrityError
from repro.mysql.gtid import GtidSet
from repro.mysql.tables import Table, content_checksum
from repro.raft.messages import InstallSnapshotChunk, InstallSnapshotRequest, InstallSnapshotResponse
from repro.raft.types import OpId
from repro.snapshot.producer import SnapshotImage, apply_delta, assemble_image

STAGING_NAMESPACE = "snapshot.staging"


def seed_engine_namespaces(
    disk: Any, tables: dict, executed_gtids: str, last_opid: OpId
) -> None:
    """Seed the durable engine namespaces with a consistent image.

    The caller constructs (or re-constructs) its MySQL server over the
    seeded disk afterwards; nothing here touches volatile state. Dirty
    tracking restarts clean with its floor at the image position: deltas
    against any older base are refused from here on.
    """
    tables_ns = disk.namespace("engine.tables")
    tables_ns.clear()
    for name, rows in tables.items():
        tables_ns[name] = Table(name, {pk: dict(row) for pk, row in rows.items()})
    meta_ns = disk.namespace("engine.meta")
    meta_ns.clear()
    meta_ns["executed_gtids"] = GtidSet.parse(executed_gtids)
    meta_ns["last_committed_opid"] = last_opid
    meta_ns["prepared_xids"] = set()
    meta_ns["dirty_seqs"] = {}
    meta_ns["dirty_floor"] = last_opid.index
    meta_ns["dirty_intact"] = True


class SnapshotInstaller:
    """Receives offer/chunk RPCs and drives the install cutover.

    ``install_fn`` is the service-level cutover (provided by the plugin
    layer): it seeds the disk from the assembled image, re-bases log
    storage, and tells the Raft node to adopt the snapshot.
    ``engine_watermark``/``engine_tables`` expose the local engine's
    apply position and table state for delta negotiation and merge; a
    node without an engine (pure log tailer) leaves them None and only
    ever accepts full images.
    """

    def __init__(
        self,
        host: Any,
        node: Any,
        install_fn: Callable[[SnapshotImage], None],
        engine_watermark: Callable[[], int] | None = None,
        engine_tables: Callable[[], dict] | None = None,
    ) -> None:
        self.host = host
        self.node = node
        self.install_fn = install_fn
        self.engine_watermark = engine_watermark
        self.engine_tables = engine_tables
        self.metrics: dict[str, int] = {
            "offers": 0,
            "resumes": 0,
            "installs": 0,
            "delta_installs": 0,
            "rejects": 0,
            "base_mismatches": 0,
            "integrity_failures": 0,
        }

    @property
    def _staging(self) -> dict:
        return self.host.disk.namespace(STAGING_NAMESPACE)

    # -- RPC handlers (term/authority already vetted by the node) ------------

    def handle_offer(self, request: InstallSnapshotRequest) -> InstallSnapshotResponse:
        self.metrics["offers"] += 1
        staging = self._staging
        if self._already_covers(request.last_opid):
            # Idempotent re-offer after a completed install (or the member
            # independently caught up): ack done without touching disk.
            # Ack exactly the position the coverage check verified — never
            # our own log tip, which may include a divergent uncommitted
            # suffix the leader must not count toward match_index.
            staging.clear()
            return self._response(
                request.snapshot_id,
                next_seq=request.total_chunks,
                done=True,
                last_opid=request.last_opid,
            )
        if request.kind == "delta" and not self._delta_base_usable(request.base_index):
            # The chain broke under us (engine moved past negotiation, or
            # we have no engine): refuse so the shipper re-bases to full.
            self.metrics["base_mismatches"] += 1
            return self._response(request.snapshot_id, next_seq=0, success=False)
        if staging.get("snapshot_id") != request.snapshot_id:
            # New transfer: keep every staged chunk the new manifest can
            # still use (content-addressed dedupe across transfers and
            # leaders), drop the rest.
            wanted = set(request.chunk_digests)
            pool = staging.get("pool", {})
            staging["pool"] = {d: blob for d, blob in pool.items() if d in wanted}
            staging["snapshot_id"] = request.snapshot_id
            staging["manifest"] = {
                "snapshot_id": request.snapshot_id,
                "last_opid": (request.last_opid.term, request.last_opid.index),
                "members_wire": tuple(request.members_wire),
                "config_index": request.config_index,
                "total_chunks": request.total_chunks,
                "total_bytes": request.total_bytes,
                "checksum": request.checksum,
                "kind": request.kind,
                "base_index": request.base_index,
                "state_crc": request.state_crc,
                "chunk_digests": tuple(request.chunk_digests),
            }
        if staging["pool"]:
            self.metrics["resumes"] += 1
        return self._advance(request.snapshot_id)

    def handle_chunk(self, chunk: InstallSnapshotChunk) -> InstallSnapshotResponse:
        staging = self._staging
        if staging.get("snapshot_id") != chunk.snapshot_id:
            # Stale or unknown transfer (e.g. a new leader started a fresh
            # one): tell the sender to re-offer.
            self.metrics["rejects"] += 1
            return self._response(chunk.snapshot_id, next_seq=0, success=False)
        digests = staging["manifest"]["chunk_digests"]
        if chunk.seq >= len(digests):
            self.metrics["rejects"] += 1
            return self._response(chunk.snapshot_id, next_seq=0, success=False)
        if hashlib.sha256(chunk.data).hexdigest() != digests[chunk.seq]:
            # Corrupted in flight: drop it; the digest it should have had
            # stays missing, so the resume cursor re-requests it.
            self.metrics["integrity_failures"] += 1
            return self._advance(chunk.snapshot_id)
        # Chunks may arrive in any order (the shipper pipelines a window);
        # the content pool doesn't care about sequence.
        staging["pool"][digests[chunk.seq]] = chunk.data
        return self._advance(chunk.snapshot_id)

    # -- internals -----------------------------------------------------------

    def _advance(self, snapshot_id: str) -> InstallSnapshotResponse:
        staging = self._staging
        manifest = staging["manifest"]
        next_seq = self._next_needed(manifest)
        if next_seq >= manifest["total_chunks"]:
            return self._finish(snapshot_id)
        return self._response(snapshot_id, next_seq=next_seq)

    def _finish(self, snapshot_id: str) -> InstallSnapshotResponse:
        staging = self._staging
        manifest = staging["manifest"]
        last_opid = OpId(*manifest["last_opid"])
        if self._already_covers(last_opid):
            # Caught up through the log while the chunks were on their way:
            # installing now would roll committed state back to the image.
            staging.clear()
            return self._response(
                snapshot_id, next_seq=manifest["total_chunks"], done=True, last_opid=last_opid
            )
        pool = staging["pool"]
        chunks = {
            seq: pool[digest] for seq, digest in enumerate(manifest["chunk_digests"])
        }
        try:
            image = assemble_image(manifest, chunks)
        except SnapshotIntegrityError:
            self.metrics["integrity_failures"] += 1
            staging.clear()
            return self._response(snapshot_id, next_seq=0, success=False)
        if image.kind == "delta":
            install = self._merge_delta(image)
            if install is None:
                staging.clear()
                return self._response(snapshot_id, next_seq=0, success=False)
        else:
            install = image
        # The cutover runs inside this event: atomic under the crash model.
        self.install_fn(install)
        staging.clear()
        self.metrics["installs"] += 1
        if image.kind == "delta":
            self.metrics["delta_installs"] += 1
            self._check_delta_install(install)
        return self._response(
            snapshot_id,
            next_seq=manifest["total_chunks"],
            done=True,
            last_opid=image.last_opid,
        )

    def _merge_delta(self, image: SnapshotImage) -> SnapshotImage | None:
        """Merge a delta over the local engine state; returns the
        full-equivalent image to install, or None when the base no longer
        matches or the merged state fails the producer's checksum."""
        if self.engine_watermark is None or self.engine_tables is None:
            self.metrics["base_mismatches"] += 1
            return None
        if self.engine_watermark() != image.base_index:
            # Engine moved (or lost state) since the offer was negotiated.
            self.metrics["base_mismatches"] += 1
            return None
        merged = apply_delta(self.engine_tables(), image)
        if content_checksum(merged) != image.state_crc:
            self.metrics["integrity_failures"] += 1
            return None
        return replace(image, kind="full", tables=merged)

    def _check_delta_install(self, install: SnapshotImage) -> None:
        """DeltaInstallSafety: after the cutover, the engine must hash
        byte-identical to the full image the delta claimed to equal."""
        monitor = getattr(self.node, "monitor", None)
        if monitor is None or self.engine_tables is None:
            return
        hook = getattr(monitor, "on_delta_installed", None)
        if hook is None:
            return
        hook(
            self.node,
            install.snapshot_id,
            install.state_crc,
            content_checksum(self.engine_tables()),
        )

    def _next_needed(self, manifest: dict) -> int:
        pool = self._staging.get("pool", {})
        for seq, digest in enumerate(manifest["chunk_digests"]):
            if digest not in pool:
                return seq
        return manifest["total_chunks"]

    def _delta_base_usable(self, base_index: int) -> bool:
        return self.engine_watermark is not None and self.engine_watermark() == base_index

    def _already_covers(self, last_opid: OpId) -> bool:
        """Whether our durable log already covers the offered image."""
        if last_opid.index == 0:
            return True
        storage = self.node.storage
        if storage.first_index() > last_opid.index + 1:
            return True  # a newer snapshot was already installed
        try:
            term = storage.term_at(last_opid.index)
        except LogTruncatedError:
            return True
        return term == last_opid.term

    def _response(
        self,
        snapshot_id: str,
        next_seq: int,
        success: bool = True,
        done: bool = False,
        last_opid: OpId | None = None,
    ) -> InstallSnapshotResponse:
        staging = self._staging
        held: tuple = ()
        if success and not done and staging.get("snapshot_id") == snapshot_id:
            pool = staging.get("pool", {})
            held = tuple(
                digest
                for digest in staging["manifest"]["chunk_digests"]
                if digest in pool
            )
        return InstallSnapshotResponse(
            term=self.node.current_term,
            follower=self.node.name,
            snapshot_id=snapshot_id,
            next_seq=next_seq,
            success=success,
            done=done,
            last_opid=last_opid if last_opid is not None else OpId.zero(),
            held_digests=held,
            engine_watermark=self.engine_watermark() if self.engine_watermark is not None else 0,
        )
