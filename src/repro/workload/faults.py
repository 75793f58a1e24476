"""Fault schedules: scripted and randomized failure injection (§5.1)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault. ``kind`` ∈ crash / restart / pause / resume /
    isolate / heal / partition_regions / heal_regions / spurious_timeout
    (the member's election timer fires now: a clock jump, a GC pause) /
    transfer (the writable primary, if any other, gracefully promotes
    ``target``: TransferLeadership, §2.2, or the semi-sync automation's
    graceful promotion)."""

    time: float
    kind: str
    target: str
    other: str = ""

    VALID = frozenset(
        {
            "crash",
            "restart",
            "pause",
            "resume",
            "isolate",
            "heal",
            "partition_regions",
            "heal_regions",
            "spurious_timeout",
            "transfer",
        }
    )

    def __post_init__(self) -> None:
        if self.kind not in self.VALID:
            raise ReproError(f"unknown fault kind {self.kind!r}")

    def to_wire(self) -> tuple:
        return (self.time, self.kind, self.target, self.other)

    @classmethod
    def from_wire(cls, wire) -> "FaultEvent":
        time, kind, target, other = wire
        return cls(float(time), str(kind), str(target), str(other))


class FaultSchedule:
    """Apply a list of fault events to a cluster at their times."""

    def __init__(self, events: list[FaultEvent]) -> None:
        self.events = sorted(events, key=lambda e: e.time)
        # The futures of the transfers this schedule started.
        self.transfers: list = []

    def arm(self, cluster) -> None:
        for event in self.events:
            cluster.loop.call_at(event.time, self._fire, cluster, event)

    def _fire(self, cluster, event: FaultEvent) -> None:
        transfer = self._apply(cluster, event)
        if transfer is not None:
            self.transfers.append(transfer)

    def transfer_checks(self) -> dict[str, int]:
        """``transfers`` started and ``transfers_failed`` (failed, refused
        or still pending) — empty when the schedule started none."""
        if not self.transfers:
            return {}
        failed = sum(
            1 for t in self.transfers if not t.done() or t.failed() or t.result() is not True
        )
        return {"transfers": len(self.transfers), "transfers_failed": failed}

    @staticmethod
    def _apply(cluster, event: FaultEvent):
        """Apply one event; a started transfer returns its future."""
        if event.kind == "crash":
            cluster.crash(event.target)
        elif event.kind == "restart":
            cluster.restart(event.target)
        elif event.kind == "pause":
            cluster.hosts[event.target].pause()
        elif event.kind == "resume":
            cluster.hosts[event.target].resume()
        elif event.kind == "isolate":
            cluster.net.isolate(event.target)
        elif event.kind == "heal":
            cluster.net.heal(event.target)
        elif event.kind == "partition_regions":
            cluster.net.partition_regions(event.target, event.other)
        elif event.kind == "heal_regions":
            cluster.net.heal_regions(event.target, event.other)
        elif event.kind == "spurious_timeout":
            host = cluster.hosts[event.target]
            if host.alive and not host.paused:
                cluster.services[event.target].node.election.expire_timer()
        elif event.kind == "transfer":
            primary = cluster.primary_service()
            if primary is not None and primary.host.name != event.target:
                return cluster.transfer_leadership(event.target)
        return None


@dataclass
class RandomFaultInjector:
    """MyShadow-style continuous failure injection (§5.1): repeatedly
    crash-and-restart (or stall-and-resume) random members on a seeded
    schedule.

    Every injected fault is recorded in ``events`` as the pair of
    :class:`FaultEvent` records that would reproduce it, so a failing run
    can be replayed — and delta-debugged — as a scripted
    :class:`FaultSchedule` (see :meth:`as_schedule`).
    """

    cluster: object
    rng: RngStream
    mean_interval: float = 20.0
    downtime: float = 5.0
    targets: list = field(default_factory=list)
    crash_leader_bias: float = 0.5
    # Probability that an injected fault is a stop-the-world pause instead
    # of a crash (exercises stale-leader read hazards).
    pause_probability: float = 0.0
    pause_stall: float | None = None  # defaults to ``downtime``
    # Probability that an injected fault is a network isolation instead of
    # a crash: the member stays alive — and keeps believing whatever it
    # believed — but no packets flow. The canonical stale-leader-serving-
    # reads hazard. Drawn before pause_probability.
    isolate_probability: float = 0.0
    isolate_downtime: float | None = None  # defaults to ``downtime``
    injected: int = 0
    events: list = field(default_factory=list)

    def start(self, duration: float) -> None:
        from repro.sim.coro import spawn

        spawn(self.cluster.loop, self._loop(duration), label="fault-injector")

    def as_schedule(self) -> FaultSchedule:
        """The faults injected so far, as a replayable scripted schedule."""
        return FaultSchedule(list(self.events))

    def _loop(self, duration: float):
        loop = self.cluster.loop
        stop_at = loop.now + duration
        while loop.now < stop_at:
            yield self.rng.expovariate(1.0 / self.mean_interval)
            if loop.now >= stop_at:
                return
            target = self._pick_target()
            if target is None:
                continue
            host = self.cluster.hosts[target]
            if not host.alive:
                continue
            self.injected += 1
            if self.isolate_probability > 0 and self.rng.bernoulli(self.isolate_probability):
                gap = (
                    self.isolate_downtime
                    if self.isolate_downtime is not None
                    else self.downtime
                )
                self.events.append(FaultEvent(loop.now, "isolate", target))
                self.events.append(FaultEvent(loop.now + gap, "heal", target))
                self.cluster.net.isolate(target)
                loop.call_after(gap, self.cluster.net.heal, target)
            elif self.pause_probability > 0 and self.rng.bernoulli(self.pause_probability):
                stall = self.pause_stall if self.pause_stall is not None else self.downtime
                self.events.append(FaultEvent(loop.now, "pause", target))
                self.events.append(FaultEvent(loop.now + stall, "resume", target))
                host.pause_for(stall)
            else:
                self.events.append(FaultEvent(loop.now, "crash", target))
                self.events.append(FaultEvent(loop.now + self.downtime, "restart", target))
                host.crash_for(self.downtime)

    def _pick_target(self):
        primary = self.cluster.primary_service()
        if primary is not None and self.rng.bernoulli(self.crash_leader_bias):
            return primary.host.name
        candidates = [n for n in (self.targets or list(self.cluster.hosts))
                      if self.cluster.hosts[n].alive]
        return self.rng.choice(candidates) if candidates else None


@dataclass
class ElectionStormInjector:
    """Crash the primary, then disturb the election that follows: two or
    three members' election timers fire spuriously within one WAN round
    trip of the first natural timeout (rival candidates in the making),
    and one more within 100 ms of the new leader's election (the late
    candidate that could depose a fresh primary).

    Reactive — the timeouts are placed off trace records — and, like
    :class:`RandomFaultInjector`, every fault is recorded in ``events`` so
    a failing run replays and shrinks as a scripted schedule."""

    cluster: object
    rng: RngStream
    mean_interval: float = 6.0
    downtime: float = 2.0
    injected: int = 0
    events: list = field(default_factory=list)
    # Trace kinds the current episode still waits for.
    _awaiting: set = field(default_factory=set)

    WAN_RTT = 0.06  # paper_network_spec: 30 ms each way
    LATE_WINDOW = 0.1

    def start(self, duration: float) -> None:
        from repro.sim.coro import spawn

        self.cluster.tracer.subscribe(self._on_trace)
        spawn(self.cluster.loop, self._loop(duration), label="election-storm")

    def _loop(self, duration: float):
        loop = self.cluster.loop
        stop_at = loop.now + duration
        while True:
            yield self.rng.uniform(0.5, 1.0) * self.mean_interval
            primary = self.cluster.primary_service()
            if loop.now + self.downtime >= stop_at:
                return
            if primary is None:
                continue
            self.injected += 1
            victim = primary.host.name
            self.events.append(FaultEvent(loop.now, "crash", victim))
            self.events.append(FaultEvent(loop.now + self.downtime, "restart", victim))
            self._awaiting = {"raft.election_timeout", "raft.leader_elected"}
            self.cluster.hosts[victim].crash_for(self.downtime)

    def _on_trace(self, record) -> None:
        if record.kind not in self._awaiting:
            return
        self._awaiting.discard(record.kind)
        if record.kind == "raft.election_timeout":
            delays = [self.rng.uniform(0.0, self.WAN_RTT) for _ in range(self.rng.randint(2, 3))]
        else:
            delays = [self.rng.uniform(0.0, self.LATE_WINDOW)]
        for delay in delays:
            self.cluster.loop.call_after(delay, self._spurious_timeout, record.get("node"))

    def _spurious_timeout(self, but_not: str) -> None:
        voters = [
            m.name for m in self.cluster.current_membership().voters()
            if m.name != but_not and self.cluster.hosts[m.name].alive
        ]
        if voters:
            event = FaultEvent(self.cluster.loop.now, "spurious_timeout", self.rng.choice(voters))
            self.events.append(event)
            FaultSchedule._apply(self.cluster, event)
