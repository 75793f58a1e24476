"""Primary-side commit-parent stamping (MySQL LOGICAL_CLOCK + WRITESET).

The primary's flush stage already knows exactly which transactions group
committed together (§3.4): members of one group held non-conflicting row
locks concurrently, so a replica may apply them in parallel. MySQL 5.7
encodes this as two counters in each GtidEvent:

- ``sequence_number``: position in the leader's commit sequence;
- ``last_committed``: the newest sequence number that must be
  engine-committed on the replica before this transaction may *start*.

Plain LOGICAL_CLOCK sets ``last_committed`` to the sequence number of the
last transaction in the *previous* flush group. WRITESET (MySQL 8)
relaxes it further: a bounded last-writer history maps each row-PK hash
to the sequence number that last wrote it, and a transaction's commit
parent drops to the newest sequence among the rows it actually touches —
letting independent transactions from *different* groups overlap too.

Counters restart at zero with each leadership (a new clock is built per
primary runtime); replicas detect the domain change via the OpId term
and drain before crossing it, so counters from different leaders are
never compared.
"""

from __future__ import annotations

import zlib


def writeset_hashes(changes) -> tuple:
    """Stable row-identity hashes for a transaction's row changes.

    One crc32 per distinct (table, pk); sorted so the stamped tuple is
    deterministic regardless of write order within the transaction.
    """
    hashes = {
        zlib.crc32(f"{change.table}|{change.pk!r}".encode()) for change in changes
    }
    return tuple(sorted(hashes))


class LogicalClock:
    """Assigns (last_committed, sequence_number) at the flush stage."""

    def __init__(self, history_size: int) -> None:
        self._history_size = history_size
        self._sequence = 0
        # Sequence number of the last member of the previous flush group —
        # the plain LOGICAL_CLOCK commit parent for the current group.
        self._group_floor = 0
        # Row hash → sequence number of its last writer. Bounded: when it
        # overflows, it resets and ``_history_floor`` rises to the current
        # sequence (nothing below it is known conflict-free any more).
        self._last_writer: dict[int, int] = {}
        self._history_floor = 0

    def begin_group(self) -> None:
        """A new flush group starts: everything stamped before it becomes
        the commit-parent floor for its members."""
        self._group_floor = self._sequence

    def stamp(self, writeset: tuple) -> tuple[int, int]:
        """Assign (last_committed, sequence_number) to the next
        transaction. ``writeset`` may be empty (unknown rows) — such
        transactions serialize against the whole group floor."""
        self._sequence += 1
        sequence = self._sequence
        last_committed = self._group_floor
        if writeset:
            if len(self._last_writer) + len(writeset) > self._history_size:
                self._last_writer.clear()
                self._history_floor = sequence - 1
            parent = self._history_floor
            for row_hash in writeset:
                parent = max(parent, self._last_writer.get(row_hash, 0))
                self._last_writer[row_hash] = sequence
            last_committed = min(last_committed, parent)
        return last_committed, sequence
