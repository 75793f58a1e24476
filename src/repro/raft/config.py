"""Raft tunables.

Defaults mirror the paper's production configuration where stated:
500 ms heartbeats with three consecutive misses required to start an
election (§6.2), giving ~1.5 s failure detection.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RaftConfig:
    """Protocol timing and sizing knobs for one Raft node."""

    # -- failure detection / elections --------------------------------------
    heartbeat_interval: float = 0.5
    missed_heartbeats_for_election: int = 3
    # Random extra election timeout in [0, jitter] decorrelates candidates.
    election_timeout_jitter: float = 0.5
    # How long a candidate waits for votes before retrying at a higher term.
    vote_timeout: float = 1.0
    # Run a mock election before TransferLeadership (§4.3).
    enable_mock_election: bool = True
    mock_election_timeout: float = 1.0
    # A mock-election voter in the candidate's region denies its vote when
    # it is *unhealthily* behind the cursor: more than this many entries,
    # or silent from the leader beyond the failure-detection window.
    # (A few entries of in-flight replication lag must not fail transfers.)
    mock_election_max_lag_entries: int = 500
    # After quiescing for a transfer, how long to wait for the target to
    # catch up before aborting and restoring write availability.
    transfer_catchup_timeout: float = 5.0

    # -- replication ---------------------------------------------------------
    max_entries_per_append: int = 64
    max_bytes_per_append: int = 1 << 20
    # Resend window: if a follower hasn't acked for this long, retry.
    append_retry_interval: float = 0.25

    # -- batched write path (§3.4 group commit through Raft) ------------------
    # Upper bound on entries accumulated into one batched storage append.
    # A flush group larger than this is split across consecutive appends
    # (group-commit boundaries are preserved: a batch never reorders).
    propose_batch_max: int = 256
    # Flow control: entry-bearing AppendEntries a peer may have in flight
    # (sent, unacked) before the leader stops pipelining new windows to
    # it. Retries after append_retry_interval still go out regardless.
    max_inflight_windows: int = 4
    # Adaptive per-append window: starts at append_window_min entries,
    # doubles on every cleanly acked window up to max_entries_per_append,
    # and collapses back to the minimum on a rejection or retry timeout
    # (slow-start, the Fast Raft / TCP-style flow-control shape).
    append_window_min: int = 8

    # -- proxying (§4.2): fault-path timers; the route itself is the
    # node's ProxyRouter, not a switch here ---------------------------------
    # How long a proxy waits for a missing entry to show up in its local
    # log before degrading the proxied message to a heartbeat (§4.2.1).
    proxy_wait_timeout: float = 0.05
    # Leader routes around a proxy that hasn't acked for this long (§4.2.3).
    proxy_health_timeout: float = 2.0

    # -- log cache -------------------------------------------------------------
    log_cache_max_bytes: int = 4 << 20

    # -- snapshot shipping / log compaction ----------------------------------
    # First-class state transfer (kuduraft tablet-copy style): when a
    # follower needs entries the leader already purged, the leader ships a
    # serialized engine image in chunks instead of failing replication.
    snapshot_chunk_bytes: int = 64 << 10
    # Transfer throttle: pacing delay between chunks models disk+network
    # pressure so a bootstrap never starves foreground replication.
    snapshot_max_bytes_per_sec: float = 8 << 20
    # How often a shipping leader re-probes a silent follower with the
    # snapshot offer (the offer doubles as the resume cursor probe).
    snapshot_retry_interval: float = 0.5
    # Pipelined transfer window: chunks a session may have in flight
    # (sent, unacked). The window opens at 1 and slow-starts up to this
    # cap, collapsing on a retry timeout; 1 reproduces the legacy
    # stop-and-wait transfer exactly.
    snapshot_max_inflight_chunks: int = 8
    # Incremental (delta) snapshots: a transfer to a follower with a
    # usable engine base ships only the rows changed since that base.
    # Re-base policy: when more than this fraction of the engine's rows
    # changed since the follower's base, ship a full image instead — a
    # delta that rewrites most of the database saves nothing and leaves
    # a longer chain to verify.
    snapshot_delta_max_fraction: float = 0.5

    # -- parallel replica apply (MTS, §3.5) ----------------------------------
    # Number of applier worker coroutines on replicas. 1 reproduces the
    # legacy serial applier exactly (same RNG draws, same schedule); >1
    # enables the LOGICAL_CLOCK dependency scheduler for A/B benches.
    parallel_apply_workers: int = 1
    # Primary-side WRITESET relaxation: non-conflicting
    # transactions get a commit parent below their group floor so replicas
    # can overlap apply across group-commit boundaries.
    # Capacity of the primary's last-writer writeset history; when it
    # fills, the history resets and parallelism falls back to group
    # boundaries until it re-warms (mirrors
    # binlog_transaction_dependency_history_size).
    writeset_history_size: int = 2000

    # -- consistent reads (repro.reads) --------------------------------------
    # barrier     — legacy commit-pipeline read barrier (a consensus round
    #               per read, via an empty marker transaction);
    # read_index  — leader captures commit_index, confirms leadership with
    #               one batched quorum probe round, serves locally;
    # lease       — quorum probe acks extend a clock-bound leader lease;
    #               a valid lease serves reads with zero network rounds;
    # follower    — non-leaders fetch the leader's ReadIndex (optionally
    #               via the §4.2 proxy path), wait for their applier, and
    #               serve locally.
    read_mode: str = "barrier"
    # Lease window credited per quorum-acked probe round, measured from
    # the round's send time. Safety: the drift-padded window must end
    # before a natural election can complete (see validate()).
    lease_duration: float = 1.2
    # Assumed bound on per-host clock rate drift (fractional). The sim
    # draws every host's true drift within this bound (repro.sim.clock);
    # lease arithmetic pads durations by it on both sides.
    clock_drift_bound: float = 5e-4
    # Client-visible cap on one consistent-read barrier (quorum round or
    # remote ReadIndex fetch + apply wait).
    read_barrier_timeout: float = 2.0

    def election_timeout_base(self) -> float:
        return self.heartbeat_interval * self.missed_heartbeats_for_election

    def validate(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.missed_heartbeats_for_election < 1:
            raise ValueError("missed_heartbeats_for_election must be >= 1")
        if self.max_entries_per_append < 1:
            raise ValueError("max_entries_per_append must be >= 1")
        if self.propose_batch_max < 1:
            raise ValueError("propose_batch_max must be >= 1")
        if self.max_inflight_windows < 1:
            raise ValueError("max_inflight_windows must be >= 1")
        if not 1 <= self.append_window_min <= self.max_entries_per_append:
            raise ValueError(
                "append_window_min must be in [1, max_entries_per_append]"
            )
        if self.snapshot_chunk_bytes < 1:
            raise ValueError("snapshot_chunk_bytes must be >= 1")
        if self.snapshot_max_bytes_per_sec <= 0:
            raise ValueError("snapshot_max_bytes_per_sec must be positive")
        if self.snapshot_retry_interval <= 0:
            raise ValueError("snapshot_retry_interval must be positive")
        if self.snapshot_max_inflight_chunks < 1:
            raise ValueError("snapshot_max_inflight_chunks must be >= 1")
        if not 0.0 < self.snapshot_delta_max_fraction <= 1.0:
            raise ValueError("snapshot_delta_max_fraction must be in (0, 1]")
        if self.parallel_apply_workers < 1:
            raise ValueError("parallel_apply_workers must be >= 1")
        if self.writeset_history_size < 1:
            raise ValueError("writeset_history_size must be >= 1")
        if self.read_mode not in ("barrier", "read_index", "lease", "follower"):
            raise ValueError(f"unknown read_mode {self.read_mode!r}")
        if not 0.0 <= self.clock_drift_bound < 0.01:
            raise ValueError("clock_drift_bound must be in [0, 0.01)")
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        if self.read_barrier_timeout <= 0:
            raise ValueError("read_barrier_timeout must be positive")
        if self.read_mode == "lease":
            # Lease safety precondition: every lease — measured on any
            # clock within the drift bound — expires before a voter can
            # have been silent long enough to grant a destabilizing vote
            # (leader stickiness window = election_timeout_base()).
            padded = self.lease_duration * (1.0 + 2.0 * self.clock_drift_bound)
            if padded >= self.election_timeout_base():
                raise ValueError(
                    "lease_duration (drift-padded) must stay below "
                    "election_timeout_base() for lease reads to be safe"
                )
