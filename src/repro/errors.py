"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the boundary. Subsystems add narrower types
below it; modules raise the most specific type that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimError(ReproError):
    """Errors raised by the discrete-event simulation substrate."""


class SimTimeoutError(SimError):
    """A simulated wait exceeded its deadline."""


class HostDownError(SimError):
    """An operation was attempted on a crashed host."""


class RaftError(ReproError):
    """Errors raised by the Raft consensus implementation."""


class NotLeaderError(RaftError):
    """A leader-only operation was invoked on a non-leader node."""


class MembershipError(RaftError):
    """An invalid membership change was requested."""


class LogTruncatedError(RaftError):
    """A requested log entry was purged or truncated away."""


class SnapshotError(RaftError):
    """Snapshot production, transfer, or install failure."""


class SnapshotIntegrityError(SnapshotError):
    """A received snapshot image failed checksum or decode validation."""


class MySQLError(ReproError):
    """Errors raised by the simulated MySQL server."""


class ReadOnlyError(MySQLError):
    """A write was attempted against a read-only (replica) server."""


class GtidError(MySQLError):
    """Malformed GTID or invalid GTID-set operation."""


class BinlogError(MySQLError):
    """Binary log framing, lookup, or rotation failure."""


class BinlogCorruptionError(BinlogError):
    """A binlog event failed its checksum or framing validation."""


class TransactionAborted(MySQLError):
    """The transaction was rolled back (e.g. leader demotion mid-commit)."""


class ControlPlaneError(ReproError):
    """Errors raised by control-plane tooling (enable-raft, quorum fixer)."""


class RolloutAborted(ControlPlaneError):
    """enable-raft aborted due to a failed safety check."""
