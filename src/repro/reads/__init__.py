"""Consistent reads: every MyRaft read is a ReadIndex read.

A read obtains a quorum-confirmed read index, waits for the local engine
to apply through it, and is served locally with no log append. The
leader confirms the index with one batched quorum probe round that
concurrent reads share; any other member fetches the leader's index
(:mod:`repro.reads.fetch`). The marker-transaction read barrier is the
semi-sync baseline's read.
"""

from repro.reads.fetch import ReadIndexFetch
from repro.reads.manager import ReadManager

__all__ = ["ReadIndexFetch", "ReadManager"]
