"""Clock-bound leader lease (LeaseGuard-style, see PAPERS.md).

Safety argument (full version in DESIGN.md):

- A lease is only ever extended to ``t_probe + duration * (1 - 2*drift)``
  where ``t_probe`` is the *local send time* of a probe round that later
  gathered a data quorum of acks. The quorum proves no higher-term
  leader had been acknowledged by an intersecting voter before the acks.
- A new leader needs an election quorum, which (FlexiRaft
  single-region-dynamic, §4.1) intersects the old leader's data quorum,
  and voters refuse votes until they have been silent for
  ``election_timeout_base()`` (leader stickiness). With
  ``duration * (1 + 2*drift_bound) < election_timeout_base()``
  (``RaftConfig.validate`` checks it against the configured heartbeat),
  every lease has expired — on every bounded-drift clock — before a
  natural election can complete.
- Leadership *transfers* bypass stickiness, so the old leader cedes its
  lease at the quiesce point and ships the remaining lease window in
  ``TimeoutNowRequest.lease_holdoff``; the new leader refuses to serve
  lease reads until that window (padded again by the drift bound) has
  passed on its own clock.
- A crash wipes the lease (it is volatile state), and a restarted leader
  cannot serve before re-earning a quorum round.
"""

from __future__ import annotations

# Lease window credited per quorum-acked probe round, measured from the
# round's send time. Safety: the drift-padded window must end before a
# natural election can complete (RaftConfig.validate).
LEASE_DURATION = 1.2
# Assumed bound on per-host clock rate drift (fractional). The sim draws
# every host's true drift within this bound (repro.sim.clock); lease
# arithmetic pads durations by it on both sides.
CLOCK_DRIFT_BOUND = 5e-4


class LeaderLease:
    """Volatile lease bookkeeping; created on election, dropped on
    step-down/crash. All times are on the owner's local skewed clock."""

    def __init__(
        self, clock, duration: float = LEASE_DURATION, drift_bound: float = CLOCK_DRIFT_BOUND
    ) -> None:
        self.clock = clock
        self.duration = duration
        self.drift_bound = drift_bound
        # Effective extension credited per quorum round: shrunk by the
        # drift bound twice (our clock may run fast, a rival's slow).
        self.effective = duration * (1.0 - 2.0 * drift_bound)
        self.expires_at = float("-inf")
        self.holdoff_until = float("-inf")
        self.ceded = False
        self.extensions = 0

    def extend(self, probe_sent_at: float) -> None:
        """Credit a quorum-acked probe round sent at local ``probe_sent_at``."""
        candidate = probe_sent_at + self.effective
        if candidate > self.expires_at:
            self.expires_at = candidate
            self.extensions += 1

    def valid(self) -> bool:
        now = self.clock.now()
        return (not self.ceded) and self.holdoff_until <= now < self.expires_at

    def remaining(self) -> float:
        """Worst-case seconds until every clock agrees this lease is dead
        (what a transfer ships as the new leader's holdoff)."""
        left = self.expires_at - self.clock.now()
        if left <= 0.0:
            return 0.0
        return left * (1.0 + 2.0 * self.drift_bound)

    def cede(self) -> None:
        """Stop serving immediately (transfer quiesce). ``expires_at`` is
        kept so ``remaining()`` can still size the successor's holdoff."""
        self.ceded = True

    def restore(self) -> None:
        """Resume serving after an *aborted* transfer. Safe because the
        node never stopped being leader and probe rounds kept extending
        ``expires_at`` throughout the quiesce window."""
        self.ceded = False

    def apply_holdoff(self, holdoff: float) -> None:
        """New-leader side of a transfer: refuse lease serving until the
        predecessor's ceded lease has expired on every clock."""
        if holdoff > 0.0:
            until = self.clock.now() + holdoff * (1.0 + 2.0 * self.drift_bound)
            self.holdoff_until = max(self.holdoff_until, until)
