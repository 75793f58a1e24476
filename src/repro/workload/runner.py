"""Drive a workload against a replicaset and measure what the paper plots.

Works identically against :class:`repro.cluster.MyRaftReplicaset` and
:class:`repro.semisync.SemiSyncReplicaset` (they share the operator
interface), which is exactly the §6.1 A/B methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MySQLError, RaftError, ReadOnlyError, ReproError, SimError
from repro.metrics import LatencyHistogram, LatencySummary, ThroughputSeries, summarize
from repro.sim.coro import spawn
from repro.workload.generators import WorkloadSpec


@dataclass
class WorkloadResult:
    """Everything Figures 5a–5d need from one run."""

    name: str
    latency: LatencyHistogram
    throughput: ThroughputSeries
    committed: int = 0
    errors: int = 0
    # Linearizable-read accounting (reads also count toward committed /
    # errors; these break out the read share of a mixed workload).
    reads: int = 0
    read_errors: int = 0
    # Replica apply lag (leader commit index minus replica engine
    # watermark, in log entries), sampled during the run: keys ``peak``,
    # ``final``, ``samples``. Empty on the semi-sync baseline, whose
    # primary has no Raft commit index to sample against.
    apply_lag: dict = field(default_factory=dict)

    def latency_summary(self) -> LatencySummary:
        return summarize(self.latency)


class WorkloadRunner:
    """Closed-loop clients against one replicaset."""

    def __init__(
        self,
        cluster,
        spec: WorkloadSpec,
        throughput_bucket: float = 1.0,
        history=None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.rng = cluster.rng.child(f"workload/{spec.name}")
        self.result = WorkloadResult(
            name=spec.name,
            latency=LatencyHistogram(spec.name),
            throughput=ThroughputSeries(throughput_bucket, spec.name),
        )
        # Optional repro.check.HistoryRecorder: when present, every client
        # operation is recorded with its invocation/response window for
        # post-run linearizability checking.
        self.history = history
        self._stop_at = 0.0
        self._txn_counter = 0
        # read_routing="sticky": per-client cached read target, dropped on
        # the first failed read (a stale routing cache being invalidated).
        self._sticky_targets: dict[int, object] = {}

    def run(self, duration: float, warmup: float = 0.0) -> WorkloadResult:
        """Run the workload for ``duration`` simulated seconds (after an
        unmeasured ``warmup``)."""
        loop = self.cluster.loop
        measure_from = loop.now + warmup
        self._stop_at = measure_from + duration
        clients = [
            spawn(loop, self._client(client_id, measure_from), label=f"client-{client_id}")
            for client_id in range(self.spec.clients)
        ]
        spawn(loop, self._lag_sampler(), label="apply-lag-sampler")
        self.cluster.run(warmup + duration)
        for client in clients:
            if client.failed():
                # A client counts library errors per operation; anything
                # else that killed it is a bug, not an unavailable cluster.
                raise client.exception()
        return self.result

    def _client(self, client_id: int, measure_from: float):
        loop = self.cluster.loop
        rng = self.rng.child(f"client{client_id}")
        while loop.now < self._stop_at:
            primary = self.cluster.primary_service()
            if primary is None or not primary.host.alive:
                yield 0.05  # discovery retry backoff
                continue
            # The read draw is guarded so a write-only spec consumes no
            # extra randomness: existing seeds replay byte-identically.
            is_read = self.spec.read_fraction > 0 and rng.random() < self.spec.read_fraction
            if is_read:
                target = self._read_target(client_id, primary, rng)
                yield from self._one_read(client_id, target, rng, measure_from)
            else:
                yield from self._one_write(client_id, primary, rng, measure_from)
            think = self.spec.sample_think(rng)
            if think > 0:
                yield think

    def _lag_sampler(self, interval: float = 0.25):
        """Sample replica apply lag while the workload runs. Draws no
        randomness and mutates nothing in the cluster, so it cannot
        perturb existing seeds' schedules."""
        loop = self.cluster.loop
        peak = 0
        samples = 0
        last = 0
        while loop.now < self._stop_at:
            lag = self._current_apply_lag()
            if lag is not None:
                samples += 1
                last = lag
                if lag > peak:
                    peak = lag
                self.result.apply_lag = {"peak": peak, "final": last, "samples": samples}
            yield interval

    def _current_apply_lag(self) -> int | None:
        """Worst replica lag right now: leader commit index minus each
        live replica's engine apply watermark."""
        primary = self.cluster.primary_service()
        if primary is None or not primary.host.alive:
            return None
        commit_index = primary.node.commit_index
        lags = [
            commit_index - service.mysql.engine.last_committed_opid.index
            for service in self.cluster.database_services()
            if service.host.alive and service is not primary
        ]
        if not lags:
            return None
        return max(0, max(lags))

    def _one_write(self, client_id: int, primary, rng, measure_from: float):
        loop = self.cluster.loop
        self._txn_counter += 1
        rows = self.spec.make_rows(rng, self._txn_counter)
        ops = []
        if self.history is not None:
            ops = [
                self.history.invoke(
                    client_id, "write", (self.spec.table, pk), row["v"]
                )
                for pk, row in rows.items()
            ]
        started = loop.now
        yield self.spec.client_latency.sample(rng)  # request flight
        try:
            process = primary.submit_write(self.spec.table, rows)
            yield process
        except ReproError as err:  # demotion/crash mid-write
            self.result.errors += 1
            # Rejected before submission → definitely not applied. Any
            # failure after submission is indeterminate: the payload may
            # sit in a log suffix a future leader commits.
            for op in ops:
                self.history.fail(op, definite=isinstance(err, ReadOnlyError))
            yield 0.02
            return
        yield self.spec.client_latency.sample(rng)  # response flight
        finished = loop.now
        for op in ops:
            self.history.complete(op)
        if started >= measure_from and finished <= self._stop_at:
            self.result.latency.record(finished - started)
            self.result.throughput.record(finished)
            self.result.committed += 1

    def _read_target(self, client_id: int, primary, rng):
        """Pick which service this client's read goes to (read_routing)."""
        routing = self.spec.read_routing
        if routing == "primary":
            return primary
        if routing == "sticky":
            cached = self._sticky_targets.get(client_id)
            if cached is not None and cached.host.alive:
                return cached
            self._sticky_targets[client_id] = primary
            return primary
        # "followers": uniform over live non-primary databases.
        pool = [
            s
            for s in self.cluster.database_services()
            if s.host.alive and s is not primary
        ]
        if not pool:
            return primary
        return pool[rng.randint(0, len(pool) - 1)]

    def _one_read(self, client_id: int, target, rng, measure_from: float):
        loop = self.cluster.loop
        pk = rng.randint(0, self.spec.key_space - 1)
        op = None
        if self.history is not None:
            op = self.history.invoke(client_id, "read", (self.spec.table, pk))
        started = loop.now
        self.result.reads += 1
        yield self.spec.client_latency.sample(rng)  # request flight
        try:
            process = target.submit_read(self.spec.table, pk)
            result = yield process
        except (MySQLError, RaftError, SimError):  # demotion/crash/timeout mid-read
            self.result.errors += 1
            self.result.read_errors += 1
            self._sticky_targets.pop(client_id, None)
            if op is not None:
                # A failed read constrains nothing either way.
                self.history.fail(op, definite=True)
            yield 0.02
            return
        yield self.spec.client_latency.sample(rng)  # response flight
        finished = loop.now
        if op is not None:
            _opid, row = result
            self.history.complete(op, value=row["v"] if row is not None else None)
        if started >= measure_from and finished <= self._stop_at:
            self.result.latency.record(finished - started)
            self.result.throughput.record(finished)
            self.result.committed += 1


@dataclass
class DowntimeWindow:
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class AvailabilityProbe:
    """A single low-rate writer that measures write-unavailability windows
    (how Table 2 downtimes are observed from the client side).

    The probe issues a small write every ``interval``; a *downtime window*
    is the span between the last success before a failure streak and the
    first success after it, minus nothing — the same client-visible
    definition the paper uses.
    """

    cluster: object
    interval: float = 0.05
    table: str = "probe"
    probe_timeout: float = 600.0
    success_times: list = field(default_factory=list)
    failures: int = 0
    _counter: int = 0

    def start(self, duration: float) -> None:
        spawn(self.cluster.loop, self._probe_loop(duration), label="availability-probe")

    def _probe_loop(self, duration: float):
        loop = self.cluster.loop
        stop_at = loop.now + duration
        while loop.now < stop_at:
            primary = self.cluster.primary_service()
            if primary is None or not primary.host.alive:
                self.failures += 1
                yield self.interval
                continue
            self._counter += 1
            try:
                process = primary.submit_write(
                    self.table, {self._counter: {"id": self._counter}}
                )
                from repro.sim.coro import with_timeout

                yield with_timeout(loop, process, self.probe_timeout)
                self.success_times.append(loop.now)
            except ReproError:
                self.failures += 1
            yield self.interval

    def downtime_windows(self, threshold: float = 0.5) -> list[DowntimeWindow]:
        """Gaps between consecutive successes longer than ``threshold``."""
        windows = []
        for previous, current in zip(self.success_times, self.success_times[1:]):
            if current - previous > threshold:
                windows.append(DowntimeWindow(previous, current))
        return windows

    def downtime_after(self, event_time: float) -> float:
        """Client-observed downtime for a fault injected at
        ``event_time``: from the last success at/before it to the first
        success after it."""
        before = [t for t in self.success_times if t <= event_time]
        after = [t for t in self.success_times if t > event_time]
        if not before or not after:
            raise ReproError("probe did not bracket the event")
        return after[0] - before[-1]

    def max_gap(self, start: float, end: float) -> float:
        """Largest gap between consecutive successes overlapping
        [start, end] — the client-observed downtime of an operation whose
        unavailability begins at an unknown instant inside the window
        (e.g. the quiesce point of a graceful promotion)."""
        relevant = [t for t in self.success_times if start - 2.0 <= t <= end]
        if len(relevant) < 2:
            raise ReproError("probe has too few successes in the window")
        return max(b - a for a, b in zip(relevant, relevant[1:]))
