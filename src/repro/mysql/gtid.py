"""Global Transaction Identifiers and GTID-set interval algebra.

MySQL identifies every transaction by ``source_uuid:transaction_id`` and
tracks executed transactions as *GTID sets* — per-uuid unions of closed
integer intervals, e.g. ``3E11FA47-...:1-5:11-18``. MyRaft preserves GTIDs
and all their metadata (§3), and demotion may *remove* GTIDs when Raft
truncates not-consensus-committed suffixes (§3.3 step 4), so the set
supports subtraction as well as union.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GtidError


@dataclass(frozen=True, order=True)
class Gtid:
    """A single global transaction identifier."""

    source_uuid: str
    txn_id: int

    def __post_init__(self) -> None:
        if self.txn_id < 1:
            raise GtidError(f"transaction ids start at 1, got {self.txn_id}")
        if not self.source_uuid:
            raise GtidError("empty source uuid")

    @classmethod
    def parse(cls, text: str) -> "Gtid":
        uuid, sep, txn = text.rpartition(":")
        if not sep or not uuid:
            raise GtidError(f"malformed GTID {text!r}")
        try:
            return cls(uuid, int(txn))
        except ValueError as err:
            raise GtidError(f"malformed GTID {text!r}") from err

    def __str__(self) -> str:
        return f"{self.source_uuid}:{self.txn_id}"


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Normalize to sorted, coalesced, non-adjacent closed intervals."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1] + 1:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


class GtidSet:
    """A set of GTIDs stored as per-uuid interval lists.

    The canonical MySQL textual form round-trips through
    :meth:`parse` / ``str()``.
    """

    def __init__(self) -> None:
        self._intervals: dict[str, list[tuple[int, int]]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GtidSet":
        """Parse ``uuid:1-5:7,uuid2:3`` (empty string → empty set)."""
        gtid_set = cls()
        text = text.strip()
        if not text:
            return gtid_set
        for clause in text.split(","):
            parts = clause.strip().split(":")
            if len(parts) < 2:
                raise GtidError(f"malformed GTID set clause {clause!r}")
            uuid = parts[0]
            for span in parts[1:]:
                low, sep, high = span.partition("-")
                try:
                    start = int(low)
                    end = int(high) if sep else start
                except ValueError as err:
                    raise GtidError(f"malformed interval {span!r}") from err
                gtid_set.add_range(uuid, start, end)
        return gtid_set

    @classmethod
    def of(cls, *gtids: Gtid) -> "GtidSet":
        gtid_set = cls()
        for gtid in gtids:
            gtid_set.add(gtid)
        return gtid_set

    def copy(self) -> "GtidSet":
        duplicate = GtidSet()
        duplicate._intervals = {uuid: list(spans) for uuid, spans in self._intervals.items()}
        return duplicate

    # -- mutation ----------------------------------------------------------

    def add(self, gtid: Gtid) -> None:
        self.add_range(gtid.source_uuid, gtid.txn_id, gtid.txn_id)

    def add_range(self, uuid: str, start: int, end: int) -> None:
        if start < 1 or end < start:
            raise GtidError(f"invalid interval {start}-{end}")
        spans = self._intervals.get(uuid)
        if not spans:
            self._intervals[uuid] = [(start, end)]
            return
        last_start, last_end = spans[-1]
        if start >= last_start:
            # In order — the steady state of a log or an engine. Every
            # earlier interval ends before ``last_start - 1``, so only the
            # tail can absorb the range; extend it or append after it.
            if start > last_end + 1:
                spans.append((start, end))
            elif end > last_end:
                spans[-1] = (last_start, end)
            return
        self._intervals[uuid] = _merge_intervals(spans + [(start, end)])

    def remove(self, gtid: Gtid) -> bool:
        """Remove one GTID (used when Raft truncates uncommitted entries).
        Returns whether it was present."""
        spans = self._intervals.get(gtid.source_uuid)
        if not spans:
            return False
        txn = gtid.txn_id
        for i, (start, end) in enumerate(spans):
            if start <= txn <= end:
                replacement = []
                if start < txn:
                    replacement.append((start, txn - 1))
                if txn < end:
                    replacement.append((txn + 1, end))
                spans[i:i + 1] = replacement
                if not spans:
                    del self._intervals[gtid.source_uuid]
                return True
        return False

    def update(self, other: "GtidSet") -> None:
        """In-place union."""
        for uuid, spans in other._intervals.items():
            for start, end in spans:
                self.add_range(uuid, start, end)

    # -- queries -----------------------------------------------------------

    def contains(self, gtid: Gtid) -> bool:
        for start, end in self._intervals.get(gtid.source_uuid, []):
            if start <= gtid.txn_id <= end:
                return True
        return False

    def __contains__(self, gtid: Gtid) -> bool:
        return self.contains(gtid)

    def is_subset_of(self, other: "GtidSet") -> bool:
        for uuid, spans in self._intervals.items():
            other_spans = other._intervals.get(uuid, [])
            for start, end in spans:
                if not any(o_start <= start and end <= o_end for o_start, o_end in other_spans):
                    # A merged interval may still be covered piecewise only
                    # if other's spans were adjacent; they're coalesced, so
                    # single-span coverage is the correct test.
                    return False
        return True

    def union(self, other: "GtidSet") -> "GtidSet":
        result = self.copy()
        result.update(other)
        return result

    def subtract(self, other: "GtidSet") -> "GtidSet":
        """GTIDs in self but not in other."""
        result = GtidSet()
        for uuid, spans in self._intervals.items():
            other_spans = other._intervals.get(uuid, [])
            for start, end in spans:
                cursor = start
                for o_start, o_end in other_spans:
                    if o_end < cursor:
                        continue
                    if o_start > end:
                        break
                    if o_start > cursor:
                        result.add_range(uuid, cursor, o_start - 1)
                    cursor = max(cursor, o_end + 1)
                    if cursor > end:
                        break
                if cursor <= end:
                    result.add_range(uuid, cursor, end)
        return result

    def count(self) -> int:
        """Total number of GTIDs in the set."""
        return sum(end - start + 1 for spans in self._intervals.values() for start, end in spans)

    def is_empty(self) -> bool:
        return not self._intervals

    def last_txn_id(self, uuid: str) -> int:
        """Highest transaction id recorded for ``uuid`` (0 if none)."""
        spans = self._intervals.get(uuid)
        return spans[-1][1] if spans else 0

    def uuids(self) -> list[str]:
        return sorted(self._intervals)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GtidSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(str(self))

    def __str__(self) -> str:
        clauses = []
        for uuid in sorted(self._intervals):
            spans = ":".join(
                f"{start}-{end}" if end > start else f"{start}"
                for start, end in self._intervals[uuid]
            )
            clauses.append(f"{uuid}:{spans}")
        return ",".join(clauses)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GtidSet({str(self)!r})"
