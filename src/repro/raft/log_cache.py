"""Bounded in-memory log-entry cache (§3.1, §3.4).

The leader serves AppendEntries from this cache when possible and falls
back to parsing historical binlog files (via the log abstraction) when a
follower has fallen too far behind. Proxy nodes use the same cache to
reconstitute PROXY_OP payloads (§4.2.1).

The cache is *read-through*: storage-fallback reads are inserted back
(``fill``) so one lagging reader warms the path for everyone else at a
nearby cursor. Eviction is oldest-inserted-first under a byte budget —
appends arrive in index order, so the steady state evicts the oldest log
prefix, while read-through fills of historical entries survive long
enough to serve the next replication round. The cache is volatile —
crash empties it, which is exactly the condition that exercises the
parse-from-disk path.

Escape hatch: a single entry larger than the whole budget is kept as the
sole cached entry (eviction never empties the cache). Because eviction
runs after every insert, that survivor is always the entry just
inserted — i.e. the newest — and the next insert evicts it. Without
this, a giant transaction could never be served from cache at all.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict

from repro.raft.log_storage import LogEntry


class LogCache:
    """index → LogEntry with a byte budget and oldest-first eviction."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        # Insertion order (eviction order) lives in the OrderedDict; a
        # parallel sorted key list gives O(log n + k) range operations
        # (truncate_from) instead of a full-key scan.
        self._entries: OrderedDict[int, LogEntry] = OrderedDict()
        self._sorted_indexes: list[int] = []
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0

    def put(self, entry: LogEntry) -> None:
        """Insert a just-appended entry (the write path)."""
        self._insert(entry)

    def fill(self, entry: LogEntry) -> None:
        """Read-through population: insert an entry that a storage
        fallback just materialized, so the next reader at this index hits."""
        self.fills += 1
        self._insert(entry)

    def _insert(self, entry: LogEntry) -> None:
        index = entry.opid.index
        old = self._entries.pop(index, None)
        if old is not None:
            self._bytes -= old.size_bytes
        elif not self._sorted_indexes or index > self._sorted_indexes[-1]:
            self._sorted_indexes.append(index)  # the write path: past the tail
        else:
            insort(self._sorted_indexes, index)
        self._entries[index] = entry
        self._bytes += entry.size_bytes
        self._evict()

    def get(self, index: int) -> LogEntry | None:
        entry = self._entries.get(index)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def _evict(self) -> None:
        # Never evict the last remaining entry: the survivor of a full
        # eviction sweep is the entry just inserted (the newest), and a
        # single entry over the whole budget must still be servable once
        # (the giant-transaction escape hatch; see module docstring).
        # The next insert makes it the oldest and evicts it normally.
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            index, evicted = self._entries.popitem(last=False)
            self._drop_sorted(index)
            self._bytes -= evicted.size_bytes
            self.evictions += 1

    def _drop_sorted(self, index: int) -> None:
        position = bisect_left(self._sorted_indexes, index)
        del self._sorted_indexes[position]

    def truncate_from(self, index: int) -> None:
        """Drop cached entries at/after ``index`` (log truncation).
        O(log n + suffix) via the sorted key list."""
        position = bisect_left(self._sorted_indexes, index)
        doomed = self._sorted_indexes[position:]
        del self._sorted_indexes[position:]
        for cached_index in doomed:
            removed = self._entries.pop(cached_index)
            self._bytes -= removed.size_bytes

    def clear(self) -> None:
        self._entries.clear()
        self._sorted_indexes.clear()
        self._bytes = 0

    def stats(self) -> dict:
        """Effectiveness counters for benches and shadow checks."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "entries": len(self._entries),
            "size_bytes": self._bytes,
            "max_bytes": self.max_bytes,
        }

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, index: int) -> bool:
        return index in self._entries
