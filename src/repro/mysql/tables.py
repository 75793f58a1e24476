"""Row storage and row-based-replication images.

Tables are keyed dicts of column dicts. Before/after images follow RBR
full-image mode (§3.4): a write has no before image, a delete no after
image, an update both.
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.errors import MySQLError

Row = dict[str, Any]


def content_checksum(tables: dict[str, dict[Any, Row]]) -> int:
    """Deterministic content hash over plain ``{name: {pk: row}}`` state.

    This is the single definition of "engine content equality": the
    engine's own :meth:`StorageEngine.checksum`, the snapshot producer's
    delta state check, and the DeltaInstallSafety monitor all hash with
    it, so a delta-installed engine can be compared byte-for-byte against
    the full image it is meant to equal.
    """
    digest = 0
    for name in sorted(tables):
        rows = tables[name]
        for pk, row in sorted(rows.items(), key=lambda item: repr(item[0])):
            item = f"{name}|{pk!r}|{sorted(row.items())!r}".encode()
            digest = zlib.crc32(item, digest)
    return digest


class Table:
    """One table: primary key → row (column dict)."""

    def __init__(self, name: str, rows: dict[Any, Row] | None = None) -> None:
        self.name = name
        self.rows: dict[Any, Row] = rows if rows is not None else {}

    def get(self, pk: Any) -> Row | None:
        row = self.rows.get(pk)
        return dict(row) if row is not None else None

    def put(self, pk: Any, row: Row) -> None:
        self.rows[pk] = dict(row)

    def delete(self, pk: Any) -> None:
        self.rows.pop(pk, None)

    def __len__(self) -> int:
        return len(self.rows)


class RowChange:
    """One row mutation with its RBR images."""

    __slots__ = ("table", "pk", "before", "after")

    def __init__(self, table: str, pk: Any, before: Row | None, after: Row | None) -> None:
        if before is None and after is None:
            raise MySQLError("row change with neither before nor after image")
        self.table = table
        self.pk = pk
        self.before = before
        self.after = after

    @property
    def kind(self) -> str:
        if self.before is None:
            return "write"
        if self.after is None:
            return "delete"
        return "update"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowChange({self.kind} {self.table}[{self.pk!r}])"
