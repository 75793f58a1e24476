"""Consistent reads: every MyRaft read is a ReadIndex read.

A read obtains a quorum-confirmed read index, waits for the local engine
to apply through it, and is served locally with no log append.
:attr:`repro.raft.config.RaftConfig.read_mode` picks how the leader
confirms the index:

- ``read_index`` — one batched quorum probe round; concurrent reads
  share it.
- ``lease`` — probe acks also extend a clock-bound leader lease, and a
  valid lease answers with *zero* network rounds. Safe under bounded
  clock drift: the drift-padded lease ends before the election
  stickiness window, and transfers cede it explicitly.

Any other member fetches the leader's index (:mod:`repro.reads.fetch`).
The marker-transaction read barrier is the semi-sync baseline's read.
"""

from repro.reads.fetch import ReadIndexFetch
from repro.reads.lease import LeaderLease
from repro.reads.manager import ReadManager

__all__ = ["LeaderLease", "ReadIndexFetch", "ReadManager"]
