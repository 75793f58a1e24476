"""Raft settings a replicaset varies.

Defaults mirror the paper's production configuration where stated:
500 ms heartbeats with three consecutive misses required to start an
election (§6.2), giving ~1.5 s failure detection. Every other protocol
timing or size is a constant beside the code that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

# §6.2: three consecutive missed heartbeats start an election.
MISSED_HEARTBEATS_FOR_ELECTION = 3


@dataclass
class RaftConfig:
    """The settings of one Raft node that a run may choose."""

    # -- failure detection / elections --------------------------------------
    heartbeat_interval: float = 0.5

    # -- log cache -------------------------------------------------------------
    log_cache_max_bytes: int = 4 << 20

    # -- parallel replica apply (MTS, §3.5) ----------------------------------
    # Number of applier worker coroutines on replicas. 1 reproduces the
    # legacy serial applier exactly (same RNG draws, same schedule); >1
    # enables the LOGICAL_CLOCK dependency scheduler for A/B benches.
    parallel_apply_workers: int = 1

    # -- consistent reads (repro.reads) --------------------------------------
    # The one read protocol, ReadIndex: the leader captures commit_index
    # and confirms its leadership with one batched quorum probe round; any
    # other member fetches that index from the leader. The read is served
    # once the local engine has applied it. "read_index" is the only
    # value; the field stays so callers that name it keep working.
    read_mode: str = "read_index"

    def election_timeout_base(self) -> float:
        return self.heartbeat_interval * MISSED_HEARTBEATS_FOR_ELECTION

    def validate(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.parallel_apply_workers < 1:
            raise ValueError("parallel_apply_workers must be >= 1")
        if self.read_mode != "read_index":
            raise ValueError(f"unknown read_mode {self.read_mode!r}")
