"""Snapshot producer: consistent engine images as content-addressed chunks.

The image is the same consistent cut ``control.backup.take_backup``
produces — engine tables + executed GTID set + the last applied OpId —
serialized to bytes so the transfer manager can stream it with honest
wire-size accounting, and checksummed so a torn or corrupted transfer is
detected before anything touches the follower's disk.

Codec version 2 makes every chunk a self-contained unit: a 5-byte header
(``SNAP`` magic + version) followed by zlib-compressed canonical JSON
(sorted keys, no whitespace). Chunk 0 is the image's *meta* record
(OpId, GTID set, content CRC); the rest carry row groups. Because row
groups are cut deterministically from stably-sorted rows and carry no
producer-specific fields (no source, no timestamp), identical content
yields identical chunk bytes — and therefore identical sha256 digests —
no matter which leader produced the image or when. That property is what
the shipper's rsync-style dedupe negotiates over: the manifest lists
every chunk digest, the follower advertises digests it already holds,
and only the rest cross the wire.

Two image kinds share the codec:

- ``full``: chunk 0 meta + ``rows`` groups, the complete table state;
- ``delta``: chunk 0 meta (carrying ``base_index``) + ``delta-rows``
  groups of upserts/deletes since that base, enumerated from the
  engine's dirty set. A delta's ``state_crc`` is the CRC of the *merged*
  state, so the installer can prove the base + delta equals the full
  image before cutting over.

Tables serialize as association lists — ``[pk, row]`` pairs — so
non-string primary keys (the usual integer pks) survive the JSON round
trip with their types intact. The version byte lets a future codec
change reject (rather than misparse) images staged by an older producer.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SnapshotError, SnapshotIntegrityError
from repro.mysql.tables import content_checksum
from repro.raft.types import OpId

# Delta re-base policy: when more than this fraction of the engine's rows
# changed since the follower's base, ship a full image instead — a delta
# that rewrites most of the database saves nothing and leaves a longer
# chain to verify.
SNAPSHOT_DELTA_MAX_FRACTION = 0.5


@dataclass(frozen=True)
class SnapshotImage:
    """One serialized, chunked engine image (full or delta) ready to ship."""

    snapshot_id: str
    source: str
    taken_at: float
    last_opid: OpId
    executed_gtids: str
    tables: dict = field(default_factory=dict)  # name -> {pk: row} (full images)
    members_wire: tuple = ()  # membership wire form frozen at production
    config_index: int = 0
    chunks: tuple = ()  # tuple[bytes, ...]
    checksum: str = ""  # sha256 over the chunk digest list
    kind: str = "full"  # "full" | "delta"
    base_index: int = 0  # delta only: base the upserts/deletes apply over
    state_crc: int = 0  # content_checksum of the (merged) table state
    chunk_digests: tuple = ()  # tuple[str, ...], sha256 hex per chunk
    upserts: dict = field(default_factory=dict)  # delta only: name -> {pk: row}
    deletes: dict = field(default_factory=dict)  # delta only: name -> [pk, ...]

    @property
    def total_bytes(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)

    def manifest(self) -> dict:
        """The durable-staging manifest a follower persists alongside
        received chunks (everything needed to finish after a crash)."""
        return {
            "snapshot_id": self.snapshot_id,
            "last_opid": (self.last_opid.term, self.last_opid.index),
            "members_wire": tuple(self.members_wire),
            "config_index": self.config_index,
            "total_chunks": self.total_chunks,
            "total_bytes": self.total_bytes,
            "checksum": self.checksum,
            "kind": self.kind,
            "base_index": self.base_index,
            "state_crc": self.state_crc,
            "chunk_digests": tuple(self.chunk_digests),
        }


SNAPSHOT_MAGIC = b"SNAP"
SNAPSHOT_CODEC_VERSION = 2
_HEADER_LEN = len(SNAPSHOT_MAGIC) + 1


def _encode_chunk(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return SNAPSHOT_MAGIC + bytes([SNAPSHOT_CODEC_VERSION]) + zlib.compress(body, 6)


def _decode_chunk(blob: bytes) -> dict:
    """Inverse of :func:`_encode_chunk`; raises
    :class:`SnapshotIntegrityError` on any malformed input."""
    if len(blob) < _HEADER_LEN or blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotIntegrityError("snapshot chunk lacks codec magic")
    version = blob[len(SNAPSHOT_MAGIC)]
    if version != SNAPSHOT_CODEC_VERSION:
        raise SnapshotIntegrityError(
            f"unsupported snapshot codec version {version} "
            f"(this build speaks {SNAPSHOT_CODEC_VERSION})"
        )
    try:
        payload = json.loads(zlib.decompress(blob[_HEADER_LEN:]).decode("utf-8"))
    except (ValueError, zlib.error) as exc:
        raise SnapshotIntegrityError(f"snapshot chunk decode failed: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise SnapshotIntegrityError("snapshot chunk payload is not a tagged record")
    return payload


def _entry_size(entry: Any) -> int:
    return len(json.dumps(entry, sort_keys=True, separators=(",", ":"))) + 1


def _group_entries(entries: list, chunk_bytes: int) -> list[list]:
    """Cut a stably-ordered entry list into groups of roughly
    ``chunk_bytes`` serialized size. Purely a function of the entries, so
    identical content always cuts at identical boundaries (the dedupe
    property)."""
    groups: list[list] = []
    current: list = []
    current_size = 0
    for entry in entries:
        size = _entry_size(entry)
        if current and current_size + size > chunk_bytes:
            groups.append(current)
            current = []
            current_size = 0
        current.append(entry)
        current_size += size
    if current:
        groups.append(current)
    return groups


def _stable_rows(rows: dict) -> list:
    return [[pk, dict(row)] for pk, row in sorted(rows.items(), key=lambda item: repr(item[0]))]


def _finish_image(
    *,
    source: str,
    taken_at: float,
    last_opid: OpId,
    executed_gtids: str,
    members_wire: tuple,
    config_index: int,
    chunks: list[bytes],
    kind: str,
    base_index: int,
    state_crc: int,
    tables: dict,
    upserts: dict,
    deletes: dict,
) -> SnapshotImage:
    digests = tuple(hashlib.sha256(chunk).hexdigest() for chunk in chunks)
    checksum = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    if kind == "delta":
        position = f"delta{base_index}>{last_opid.term}.{last_opid.index}"
    else:
        position = f"{last_opid.term}.{last_opid.index}"
    return SnapshotImage(
        snapshot_id=f"{source}:{position}:{checksum[:12]}",
        source=source,
        taken_at=taken_at,
        last_opid=last_opid,
        executed_gtids=executed_gtids,
        tables=tables,
        members_wire=tuple(members_wire),
        config_index=config_index,
        chunks=tuple(chunks),
        checksum=checksum,
        kind=kind,
        base_index=base_index,
        state_crc=state_crc,
        chunk_digests=digests,
        upserts=upserts,
        deletes=deletes,
    )


def _trace(host: Any, kind: str, **fields: Any) -> None:
    if host.tracer is not None:
        host.tracer.emit(kind, host=host.name, **fields)


def engine_tables(engine: Any) -> dict:
    """A copy of a storage engine's tables as ``{name: {pk: row}}``: the
    rows of a consistent cut, shared by images and backups."""
    return {
        name: {pk: dict(row) for pk, row in engine.table(name).rows.items()}
        for name in engine.table_names()
    }


def engine_image(host: Any, engine: Any, membership: Any, chunk_bytes: int) -> SnapshotImage | None:
    """Serialize ``engine``'s state on ``host`` — the same consistent cut
    ``control.backup.take_backup`` produces — into a shippable image.
    None when nothing has been applied yet (nothing to ship that an
    empty follower doesn't already have)."""
    last_opid = engine.last_committed_opid
    if last_opid == OpId.zero():
        return None
    tables = engine_tables(engine)
    rows = sum(len(table) for table in tables.values())
    _trace(host, "myraft.snapshot_produced", opid=str(last_opid), rows=rows)
    return build_image(
        source=host.name,
        taken_at=host.loop.now,
        last_opid=last_opid,
        executed_gtids=str(engine.executed_gtids),
        tables=tables,
        members_wire=membership.to_wire(),
        config_index=membership.config_index,
        chunk_bytes=chunk_bytes,
    )


def engine_delta(
    host: Any, engine: Any, membership: Any, chunk_bytes: int, base_index: int
) -> SnapshotImage | None:
    """A delta of ``engine``'s rows changed since ``base_index`` (a
    follower's engine watermark). None — keeping the shipper on the full
    image — when the dirty tracker can't vouch for the base or the
    re-base policy says the delta would be too fat to pay off."""
    if engine.last_committed_opid.index <= base_index:
        return None
    changes = engine.changed_since(base_index)
    if changes is None:
        return None  # base predates the tracking floor (or tracking broke)
    changed_rows = sum(len(touched) for touched in changes.values())
    if changed_rows > SNAPSHOT_DELTA_MAX_FRACTION * max(1, engine.row_count()):
        return None  # re-base: most of the database changed anyway
    image = build_delta(
        source=host.name,
        taken_at=host.loop.now,
        last_opid=engine.last_committed_opid,
        executed_gtids=str(engine.executed_gtids),
        base_index=base_index,
        changes=changes,
        state_crc=engine.checksum(),
        members_wire=membership.to_wire(),
        config_index=membership.config_index,
        chunk_bytes=chunk_bytes,
    )
    _trace(
        host,
        "myraft.snapshot_delta_produced",
        base=base_index,
        opid=str(image.last_opid),
        rows=changed_rows,
    )
    return image


def build_image(
    *,
    source: str,
    taken_at: float,
    last_opid: OpId,
    executed_gtids: str,
    tables: dict,
    members_wire: tuple = (),
    config_index: int = 0,
    chunk_bytes: int = 64 << 10,
) -> SnapshotImage:
    """Serialize a consistent engine cut into transfer-ready chunks."""
    if chunk_bytes < 1:
        raise SnapshotError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    state_crc = content_checksum(tables)
    chunks = [
        _encode_chunk(
            {
                "kind": "meta",
                "image": "full",
                "last_opid": [last_opid.term, last_opid.index],
                "executed_gtids": executed_gtids,
                "state_crc": state_crc,
            }
        )
    ]
    for name in sorted(tables):
        # An empty table still emits one (empty) group so it survives the
        # round trip with its name intact.
        for group in _group_entries(_stable_rows(tables[name]), chunk_bytes) or [[]]:
            chunks.append(_encode_chunk({"kind": "rows", "table": name, "rows": group}))
    return _finish_image(
        source=source,
        taken_at=taken_at,
        last_opid=last_opid,
        executed_gtids=executed_gtids,
        members_wire=members_wire,
        config_index=config_index,
        chunks=chunks,
        kind="full",
        base_index=0,
        state_crc=state_crc,
        tables={name: {pk: dict(row) for pk, row in rows.items()} for name, rows in tables.items()},
        upserts={},
        deletes={},
    )


def build_delta(
    *,
    source: str,
    taken_at: float,
    last_opid: OpId,
    executed_gtids: str,
    base_index: int,
    changes: dict,
    state_crc: int,
    members_wire: tuple = (),
    config_index: int = 0,
    chunk_bytes: int = 64 << 10,
) -> SnapshotImage:
    """Serialize the rows changed since ``base_index`` into a delta image.

    ``changes`` is the engine's ``changed_since`` output — per-table
    ``{pk: row-or-None}`` with ``None`` marking deletes — and
    ``state_crc`` is the content checksum of the *current* (merged) state
    the delta reconstructs when applied over an exact-``base_index`` base.
    """
    if chunk_bytes < 1:
        raise SnapshotError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    chunks = [
        _encode_chunk(
            {
                "kind": "meta",
                "image": "delta",
                "base_index": base_index,
                "last_opid": [last_opid.term, last_opid.index],
                "executed_gtids": executed_gtids,
                "state_crc": state_crc,
            }
        )
    ]
    upserts: dict = {}
    deletes: dict = {}
    for name in sorted(changes):
        touched = changes[name]
        ups = {pk: row for pk, row in touched.items() if row is not None}
        dels = sorted((pk for pk, row in touched.items() if row is None), key=repr)
        if ups:
            upserts[name] = {pk: dict(row) for pk, row in ups.items()}
        if dels:
            deletes[name] = list(dels)
        entries = [["u", pk, row] for pk, row in _stable_rows(ups)]
        entries += [["d", pk] for pk in dels]
        for group in _group_entries(entries, chunk_bytes):
            chunks.append(_encode_chunk({"kind": "delta-rows", "table": name, "entries": group}))
    return _finish_image(
        source=source,
        taken_at=taken_at,
        last_opid=last_opid,
        executed_gtids=executed_gtids,
        members_wire=members_wire,
        config_index=config_index,
        chunks=chunks,
        kind="delta",
        base_index=base_index,
        state_crc=state_crc,
        tables={},
        upserts=upserts,
        deletes=deletes,
    )


def apply_delta(base_tables: dict, image: SnapshotImage) -> dict:
    """Merge a delta image over a base table state; returns the new
    ``{name: {pk: row}}`` without mutating the input."""
    if image.kind != "delta":
        raise SnapshotError(f"apply_delta on a {image.kind!r} image")
    merged = {
        name: {pk: dict(row) for pk, row in rows.items()} for name, rows in base_tables.items()
    }
    for name, rows in image.upserts.items():
        table = merged.setdefault(name, {})
        for pk, row in rows.items():
            table[pk] = dict(row)
    for name, pks in image.deletes.items():
        table = merged.get(name)
        if table is None:
            continue
        for pk in pks:
            table.pop(pk, None)
    return merged


def assemble_image(manifest: dict, chunks: dict) -> SnapshotImage:
    """Reassemble and validate a received image from staged chunks.

    Raises :class:`SnapshotIntegrityError` when chunks are missing, a
    chunk's bytes do not match its manifest digest, or the decoded state
    disagrees with the manifest — the installer then discards the staging
    area rather than seeding a torn image.
    """
    total = manifest["total_chunks"]
    digests = tuple(manifest.get("chunk_digests", ()))
    if len(digests) != total:
        raise SnapshotIntegrityError(
            f"snapshot {manifest['snapshot_id']!r} manifest lists {len(digests)} "
            f"digests for {total} chunks"
        )
    missing = [seq for seq in range(total) if seq not in chunks]
    if missing:
        raise SnapshotIntegrityError(
            f"snapshot {manifest['snapshot_id']!r} missing chunks {missing[:4]}"
        )
    corrupt = [
        seq for seq in range(total) if hashlib.sha256(chunks[seq]).hexdigest() != digests[seq]
    ]
    if corrupt:
        raise SnapshotIntegrityError(
            f"snapshot {manifest['snapshot_id']!r} chunk digest mismatch at {corrupt[:4]}"
        )
    checksum = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    if checksum != manifest["checksum"]:
        raise SnapshotIntegrityError(
            f"snapshot {manifest['snapshot_id']!r} checksum mismatch "
            f"({checksum[:12]} != {manifest['checksum'][:12]})"
        )
    meta = _decode_chunk(chunks[0])
    if meta.get("kind") != "meta":
        raise SnapshotIntegrityError("snapshot chunk 0 is not the meta record")
    kind = "delta" if meta.get("image") == "delta" else "full"
    term, index = meta["last_opid"]
    last_opid = OpId(term=term, index=index)
    if (last_opid.term, last_opid.index) != tuple(manifest["last_opid"]):
        raise SnapshotIntegrityError("snapshot payload opid disagrees with manifest")
    tables: dict = {}
    upserts: dict = {}
    deletes: dict = {}
    try:
        for seq in range(1, total):
            payload = _decode_chunk(chunks[seq])
            if kind == "full" and payload["kind"] == "rows":
                table = tables.setdefault(payload["table"], {})
                for pk, row in payload["rows"]:
                    table[pk] = row
            elif kind == "delta" and payload["kind"] == "delta-rows":
                name = payload["table"]
                for entry in payload["entries"]:
                    if entry[0] == "u":
                        upserts.setdefault(name, {})[entry[1]] = entry[2]
                    elif entry[0] == "d":
                        deletes.setdefault(name, []).append(entry[1])
                    else:
                        raise SnapshotIntegrityError(
                            f"unknown delta entry tag {entry[0]!r}"
                        )
            else:
                raise SnapshotIntegrityError(
                    f"chunk {seq} kind {payload['kind']!r} does not belong in a "
                    f"{kind} image"
                )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SnapshotIntegrityError(f"snapshot decode failed: {exc}") from exc
    state_crc = meta.get("state_crc", 0)
    if kind == "full" and content_checksum(tables) != state_crc:
        raise SnapshotIntegrityError(
            f"snapshot {manifest['snapshot_id']!r} decoded state crc mismatch"
        )
    return SnapshotImage(
        snapshot_id=manifest["snapshot_id"],
        source="",
        taken_at=0.0,
        last_opid=last_opid,
        executed_gtids=meta["executed_gtids"],
        tables=tables,
        members_wire=tuple(manifest.get("members_wire", ())),
        config_index=manifest.get("config_index", 0),
        chunks=tuple(chunks[seq] for seq in range(total)),
        checksum=manifest["checksum"],
        kind=kind,
        base_index=meta.get("base_index", 0),
        state_crc=state_crc,
        chunk_digests=digests,
        upserts=upserts,
        deletes=deletes,
    )
