"""Seed explorer: sweep scenarios × seeds, bundle anything that fails.

One :func:`run_once` is a complete, deterministic experiment: build the
cluster for a scenario at a seed, on the scenario's stack, attach the
invariant monitors, record the client history, inject faults, then check
every invariant and the linearizability of the observed history. The
outcome also carries what the paper's §6 drills measure: the
availability probe's downtime and the clients' latency and throughput.
:func:`explore` sweeps the matrix and writes a self-contained repro bundle (JSON: scenario, seed,
fault schedule, violations, trace tail) for every failing run —
re-running the bundle's (scenario, seed) reproduces the run event for
event, because the simulator is deterministic in exactly those inputs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.check.history import HistoryRecorder, check_linearizable
from repro.check.invariants import InvariantSuite
from repro.check.mutations import apply_mutation
from repro.check.scenarios import SCENARIOS, Scenario
from repro.cluster.replicaset import MyRaftReplicaset
from repro.errors import ReproError
from repro.semisync.replicaset import SemiSyncReplicaset
from repro.sim.coro import spawn
from repro.workload.faults import FaultEvent, FaultSchedule
from repro.workload.runner import AvailabilityProbe, WorkloadResult, WorkloadRunner

TRACE_TAIL = 200
# How long a run with a probe may wait for a write after its last fault.
RECOVERY_LIMIT = 300.0


@dataclass
class RunOutcome:
    """Everything one experiment produced, JSON-serializable."""

    scenario: str
    seed: int
    violations: list = field(default_factory=list)  # Violation.to_wire() dicts
    linearizable: bool = True
    lin_detail: str = ""
    committed: int = 0
    errors: int = 0
    crashed: str | None = None  # the run itself raised (liveness failure)
    checks: dict = field(default_factory=dict)
    history_stats: dict = field(default_factory=dict)
    fault_events: list = field(default_factory=list)  # FaultEvent.to_wire()
    mutation: str | None = None
    scripted: bool = False  # fault_events were replayed as a script
    trace_tail: list = field(default_factory=list)
    # What the §6 drills read, in seconds: the probe's longest write gap
    # from the first fault on (None without a probe), and the measured
    # commits' latency percentiles, rate and empty rate buckets (empty
    # without clients).
    downtime: float | None = None
    load: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and self.linearizable and self.crashed is None

    def failure_kinds(self) -> list[str]:
        kinds = [v["invariant"] for v in self.violations]
        if not self.linearizable:
            kinds.append("Linearizability")
        if self.crashed is not None:
            kinds.append("RunCrashed")
        return kinds

    def digest(self) -> str:
        """Hash of the deterministic face of the outcome — two runs of the
        same (scenario, seed, schedule, mutation) must agree on it. The
        probe's downtime counts where there is a probe; ``load`` derives
        from the commits already counted here."""
        face = {
            "scenario": self.scenario,
            "seed": self.seed,
            "violations": self.violations,
            "linearizable": self.linearizable,
            "committed": self.committed,
            "errors": self.errors,
            "crashed": self.crashed,
            "history": self.history_stats,
            "faults": self.fault_events,
        }
        if self.downtime is not None:
            face["downtime"] = self.downtime
        canonical = json.dumps(face, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_wire(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "violations": self.violations,
            "linearizable": self.linearizable,
            "lin_detail": self.lin_detail,
            "committed": self.committed,
            "errors": self.errors,
            "crashed": self.crashed,
            "checks": self.checks,
            "history_stats": self.history_stats,
            "fault_events": self.fault_events,
            "mutation": self.mutation,
            "scripted": self.scripted,
            "digest": self.digest(),
            "trace_tail": self.trace_tail,
            "downtime": self.downtime,
            "load": self.load,
        }


def run_once(
    scenario: Scenario,
    seed: int,
    schedule: list[FaultEvent] | None = None,
    mutation: str | None = None,
) -> RunOutcome:
    """One deterministic experiment. ``schedule`` overrides the scenario's
    own fault source with a scripted event list (replay / shrinking)."""
    outcome = RunOutcome(
        scenario=scenario.name,
        seed=seed,
        mutation=mutation,
        scripted=schedule is not None,
    )
    myraft = scenario.stack == "myraft"
    with apply_mutation(mutation):
        if myraft:
            cluster = MyRaftReplicaset(
                scenario.topology(),
                seed=seed,
                raft_config=scenario.raft_config(),
                network_spec=scenario.network_spec(),
                timing=scenario.timing(),
                trace_capacity=2048,
            )
        else:
            cluster = SemiSyncReplicaset(
                scenario.topology(),
                seed=seed,
                network_spec=scenario.network_spec(),
                timing=scenario.timing(),
                trace_capacity=2048,
            )
        suite = InvariantSuite()
        if myraft:
            suite.attach(cluster)
        history = HistoryRecorder(cluster.loop)
        injector = None
        scripted: FaultSchedule | None = None
        drills: list = []
        drill_checks: dict[str, int] = {}
        try:
            cluster.bootstrap(timeout=30.0)
            if schedule is not None:
                scripted = FaultSchedule(list(schedule))
                scripted.arm(cluster)
            else:
                injector, scripted = scenario.make_faults(
                    cluster, cluster.rng.child("faults")
                )
                if injector is not None:
                    injector.start(scenario.duration)
                else:
                    scripted.arm(cluster)
            if scenario.catch_up_within > 0 and scripted is not None:
                suite.watch_catch_up(cluster, scripted.events, scenario.catch_up_within)
            if scenario.leader_within > 0:
                suite.watch_leader(cluster, scenario.leader_within)
            if scenario.reimages > 0:
                drills = [
                    spawn(cluster.loop, scenario.reimage_drill(cluster, seed, drill_checks),
                          label="reimage-drill"),
                    spawn(cluster.loop, scenario.replace_drill(cluster, drill_checks),
                          label="replace-drill"),
                ]
            probe = None
            if scenario.probe_interval > 0:
                probe = AvailabilityProbe(cluster, interval=scenario.probe_interval)
                probe.start(float("inf"))
            spec = scenario.workload_spec()
            result = None
            if spec is not None:
                runner = WorkloadRunner(cluster, spec, history=history)
                result = runner.run(scenario.duration, warmup=scenario.warmup)
            else:
                cluster.run(scenario.warmup + scenario.duration)
            # A drill's probe measures from its scripted fault on.
            probed = probe is not None and scripted is not None and scripted.events
            if probed:
                _run_until_recovered(cluster, probe, scripted)
            cluster.run(scenario.settle)
            if probed:
                outcome.downtime = probe.max_gap(scripted.events[0].time, cluster.loop.now)
            suite.check_cluster(cluster)
            for drill in drills:
                if drill.done():
                    drill.result()  # a drill that died on a bug is a finding
            if result is not None:
                outcome.committed = result.committed
                outcome.errors = result.errors
                outcome.load = _load(result, scenario.duration)
        except Exception as err:  # noqa: BLE001 - a dead run is a finding
            outcome.crashed = f"{type(err).__name__}: {err}"
        report = check_linearizable(history)
        outcome.violations = [v.to_wire() for v in suite.violations]
        outcome.linearizable = report.ok
        outcome.lin_detail = report.describe()
        outcome.checks = {**suite.summary()["checks"], **drill_checks}
        if scripted is not None:
            outcome.checks.update(scripted.transfer_checks())
        outcome.history_stats = history.stats()
        events = injector.events if injector is not None else (
            scripted.events if scripted is not None else []
        )
        outcome.fault_events = [e.to_wire() for e in events]
        outcome.trace_tail = [str(r) for r in cluster.tracer.tail(TRACE_TAIL)]
    return outcome


def _run_until_recovered(cluster, probe: AvailabilityProbe, schedule: FaultSchedule) -> None:
    """Run until the ring is back from the schedule's faults: the last
    has fired, every transfer started has finished, and the probe has
    written since."""
    deadline = schedule.events[-1].time + RECOVERY_LIMIT
    last = schedule.events[-1].time

    def step() -> None:
        if cluster.loop.now >= deadline:
            raise ReproError(f"no recovery within {RECOVERY_LIMIT:g}s of the last fault")
        cluster.run(0.1)

    while cluster.loop.now <= last or not all(t.done() for t in schedule.transfers):
        step()
    mark = cluster.loop.now
    while not probe.success_times or probe.success_times[-1] <= mark:
        step()


def _load(result: WorkloadResult, duration: float) -> dict:
    """The commits' latency percentiles (seconds), their rate over the
    ``duration`` measured and the empty one-second buckets in between
    (Figure 5's two panels)."""
    if result.latency.count == 0:
        return {}
    summary = result.latency_summary()
    return {
        "latency_avg": summary.avg,
        "latency_p50": summary.median,
        "latency_p95": summary.p95,
        "latency_p99": summary.p99,
        "commits_per_s": result.throughput.mean_rate(duration),
        "stalled_buckets": result.throughput.stalled_buckets(),
    }


@dataclass
class ExploreReport:
    """What a sweep did."""

    runs: int = 0
    failures: list = field(default_factory=list)  # RunOutcome
    bundles: list = field(default_factory=list)  # Path
    # Every run's outcome digest, in sweep order — the determinism
    # witness the parallel explorer is audited against (same digests for
    # every --jobs value).
    digests: list = field(default_factory=list)
    # Per scenario, every monitor's check count summed over its seeds:
    # what the sweep actually exercised.
    checks: dict = field(default_factory=dict)  # scenario -> {check: total}

    @property
    def ok(self) -> bool:
        return not self.failures


def default_jobs() -> int:
    """Worker count for ``jobs=0`` (auto): the CPUs this process may
    actually run on, which on a containerized CI runner can be fewer
    than ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _run_job(job: tuple[str, int, str | None]) -> RunOutcome:
    """Worker-process entry: one complete experiment, looked up by
    scenario *name* so the job tuple stays trivially picklable."""
    name, seed, mutation = job
    return run_once(SCENARIOS[name], seed, mutation=mutation)


def _outcome_stream(
    jobs_list: list[tuple[str, int, str | None]], jobs: int
) -> Iterator[RunOutcome]:
    """Yield one outcome per job, *in submission order* regardless of
    worker count. Each seed is an independent deterministic simulation,
    so fanning seeds out to processes changes only wall-clock time; the
    parent consumes results in order, which keeps logs, failure lists,
    and bundle writes byte-identical to a serial sweep."""
    if jobs <= 1 or len(jobs_list) <= 1:
        for job in jobs_list:
            yield _run_job(job)
        return
    with multiprocessing.Pool(processes=min(jobs, len(jobs_list))) as pool:
        yield from pool.imap(_run_job, jobs_list)


def explore(
    scenario_names: list[str],
    seeds: list[int],
    mutation: str | None = None,
    bundle_dir: Path | None = None,
    log=None,
    jobs: int = 1,
) -> ExploreReport:
    """Sweep ``scenario_names`` × ``seeds``; write a bundle per failure.

    ``jobs`` > 1 fans the (scenario, seed) matrix out to a process pool;
    ``jobs=0`` sizes the pool to the available CPUs. Results merge back
    in deterministic sweep order — verdicts, digests, and bundles are
    byte-identical for every job count.
    """
    for name in scenario_names:
        if name not in SCENARIOS:
            raise ReproError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    if jobs == 0:
        jobs = default_jobs()
    jobs_list = [
        (name, seed, mutation) for name in scenario_names for seed in seeds
    ]
    report = ExploreReport()
    for (name, seed, _), outcome in zip(
        jobs_list, _outcome_stream(jobs_list, jobs)
    ):
        report.runs += 1
        report.digests.append(outcome.digest())
        totals = report.checks.setdefault(name, {})
        for check, count in outcome.checks.items():
            totals[check] = totals.get(check, 0) + count
        if not outcome.ok:
            report.failures.append(outcome)
            if bundle_dir is not None:
                report.bundles.append(write_bundle(outcome, bundle_dir))
        if log is not None:
            status = "ok" if outcome.ok else ",".join(outcome.failure_kinds())
            log(
                f"[{report.runs}] {name} seed={seed}: {status} "
                f"(committed={outcome.committed}, faults={len(outcome.fault_events) // 2})"
            )
    return report


def write_bundle(outcome: RunOutcome, directory: Path) -> Path:
    """Persist a self-contained repro bundle for a failing run."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    suffix = f"-{outcome.mutation}" if outcome.mutation else ""
    path = directory / f"{outcome.scenario}{suffix}-seed{outcome.seed}.json"
    path.write_text(json.dumps(outcome.to_wire(), indent=2, sort_keys=True))
    return path


def load_bundle(path: Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def replay_bundle(path: Path, scripted: bool = False) -> RunOutcome:
    """Re-run a bundle. Default replays the original (scenario, seed) run
    exactly; ``scripted=True`` instead replays the recorded fault events
    as a scripted schedule (the shrinker's view of the run)."""
    data = load_bundle(path)
    scenario = SCENARIOS.get(data["scenario"])
    if scenario is None:
        raise ReproError(f"bundle names unknown scenario {data['scenario']!r}")
    schedule = None
    if scripted:
        schedule = [FaultEvent.from_wire(w) for w in data["fault_events"]]
    return run_once(
        scenario, int(data["seed"]), schedule=schedule, mutation=data.get("mutation")
    )
