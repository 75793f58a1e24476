"""kuduraft-equivalent Raft implementation with MyRaft's enhancements.

- :mod:`~repro.raft.node` — the Raft state machine (replication,
  membership, dispatch).
- :mod:`~repro.raft.election` — elections: timer, pre-vote, vote, the
  voter side, retraction and the §4.1 voting history.
- :mod:`~repro.raft.transfer` — TransferLeadership with mock elections
  (§4.3), TimeoutNow and the witness hand-off.
- :mod:`~repro.raft.log_storage` — the log abstraction the paper adds to
  kuduraft so it can read/write MySQL binary logs (§3.1).
- :mod:`~repro.raft.proxy` — AppendEntries proxying with ``PROXY_OP``
  messages (§4.2).

FlexiRaft quorum policies live in :mod:`repro.flexiraft`.
"""

from repro.raft.types import MemberInfo, MemberType, OpId, RaftRole

__all__ = ["MemberInfo", "MemberType", "OpId", "RaftRole"]
