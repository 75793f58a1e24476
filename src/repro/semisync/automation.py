"""External failure detection and failover automation (the prior setup).

This is the control plane the paper replaced with Raft: a process
*outside* MySQL that pings the primary, detects failures after several
missed probes, and then walks a multi-step orchestration — confirm the
death, wait in the automation work queue, collect replica/acker
positions, reconcile semi-sync-acked transactions from logtailer logs,
promote the best replica, and serially re-point everyone else. Every
step costs real time, which is where Table 2's minute-scale failovers
come from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.control.discovery import ServiceDiscovery
from repro.errors import ControlPlaneError, SimTimeoutError
from repro.raft.types import OpId
from repro.semisync.messages import ControlReply, ControlRequest, HealthPing, HealthPong
from repro.sim.coro import SimFuture, with_timeout
from repro.sim.host import Host
from repro.sim.rng import RngStream


@dataclass
class SemiSyncAutomationConfig:
    """Knobs for the prior setup's control plane.

    Defaults are tuned to land in the paper's Table 2 bands: dead-primary
    failover around a minute (median ~55s, p99 ~3min), graceful
    promotion around a second.
    """

    health_check_interval: float = 10.0
    failures_for_detection: int = 3
    confirm_delay: float = 5.0
    control_rpc_timeout: float = 10.0
    # Worker-queue pickup delay before the failover job actually runs.
    queue_delay_median: float = 14.0
    queue_delay_sigma: float = 0.7
    # Think time between failover orchestration steps (safety checks,
    # lock acquisition, logging, ...).
    failover_step_median: float = 1.2
    failover_step_sigma: float = 0.5
    # Graceful promotions are operator-driven and skip the queue.
    graceful_step_median: float = 0.18
    graceful_step_sigma: float = 0.35
    # After quiescing, wait for in-flight transactions to drain before
    # comparing positions (FLUSH TABLES-style settling).
    quiesce_drain: float = 0.35
    catchup_poll_interval: float = 0.25
    catchup_timeout: float = 120.0


class FailoverAutomation:
    """Host service: the external monitor + failover orchestrator."""

    def __init__(
        self,
        host: Host,
        config: SemiSyncAutomationConfig,
        discovery: ServiceDiscovery,
        replicaset: str,
        database_names: list[str],
        acker_names_by_region: dict[str, list[str]],
        member_regions: dict[str, str],
        rng: RngStream,
    ) -> None:
        self.host = host
        self.config = config
        self.discovery = discovery
        self.replicaset = replicaset
        self.database_names = list(database_names)
        self.acker_names_by_region = {r: list(a) for r, a in acker_names_by_region.items()}
        self.member_regions = dict(member_regions)
        self.rng = rng.child("automation")
        self.current_primary: str | None = None
        self._request_ids = itertools.count(1)
        self._rpc_waiters: dict[int, SimFuture] = {}
        self._ping_waiters: dict[int, SimFuture] = {}
        self._probe_ids = itertools.count(1)
        self._consecutive_failures = 0
        self._failover_in_progress = False
        self.failovers_completed = 0
        self.promotions_completed = 0
        self._monitoring = False

    # -- message plumbing ----------------------------------------------------------

    def handle_message(self, src: str, message: Any) -> None:
        if isinstance(message, ControlReply):
            waiter = self._rpc_waiters.pop(message.request_id, None)
            if waiter is not None:
                waiter.resolve_if_pending(message)
        elif isinstance(message, HealthPong):
            waiter = self._ping_waiters.pop(message.probe_id, None)
            if waiter is not None:
                waiter.resolve_if_pending(True)

    def on_crash(self) -> None:
        self._rpc_waiters.clear()
        self._ping_waiters.clear()

    def on_restart(self) -> None:
        if self._monitoring:
            self._monitoring = False
            self.start_monitoring(self.current_primary)

    def _rpc(self, target: str, command: str, args: dict | None = None,
             timeout: float | None = None):
        request_id = next(self._request_ids)
        waiter = SimFuture(self.host.loop, label=f"rpc:{command}@{target}")
        self._rpc_waiters[request_id] = waiter
        self.host.send(target, ControlRequest(request_id, command, args or {}))
        return with_timeout(
            self.host.loop, waiter, timeout or self.config.control_rpc_timeout
        )

    def _ping(self, target: str, timeout: float = 2.0):
        probe_id = next(self._probe_ids)
        waiter = SimFuture(self.host.loop, label=f"ping:{target}")
        self._ping_waiters[probe_id] = waiter
        self.host.send(target, HealthPing(probe_id))
        return with_timeout(self.host.loop, waiter, timeout)

    def _think(self, median: float, sigma: float) -> float:
        return self.rng.lognormal_from_median(median, sigma)

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.host.tracer is not None:
            self.host.tracer.emit(kind, host=self.host.name, **fields)

    # -- monitoring -------------------------------------------------------------------

    def start_monitoring(self, primary: str | None) -> None:
        self.current_primary = primary
        if self._monitoring:
            return
        self._monitoring = True
        self.host.spawn(self._monitor_loop(), label="automation:monitor")

    def _monitor_loop(self):
        while True:
            yield self.config.health_check_interval
            if self.current_primary is None or self._failover_in_progress:
                continue
            try:
                yield self._ping(self.current_primary)
                self._consecutive_failures = 0
            except SimTimeoutError:
                self._consecutive_failures += 1
                self._trace(
                    "semisync.probe_failed",
                    primary=self.current_primary,
                    consecutive=self._consecutive_failures,
                )
                if self._consecutive_failures >= self.config.failures_for_detection:
                    self._consecutive_failures = 0
                    self._trace("semisync.failure_detected", primary=self.current_primary)
                    self.host.spawn(self._failover(), label="automation:failover")

    # -- position helpers -----------------------------------------------------------------

    def _collect_positions(self, names: list[str]):
        positions: dict[str, dict] = {}
        for name in names:
            try:
                reply = yield self._rpc(name, "report_position", timeout=3.0)
                if reply.ok:
                    positions[name] = reply.data
            except SimTimeoutError:
                continue
        return positions

    def _all_acker_names(self) -> list[str]:
        return [a for ackers in self.acker_names_by_region.values() for a in ackers]

    def _ship_targets_for(self, new_primary: str) -> list[str]:
        return [
            n for n in self.database_names + self._all_acker_names() if n != new_primary
        ]

    # -- failover (dead primary) --------------------------------------------------------------

    def _failover(self):
        if self._failover_in_progress:
            return
        self._failover_in_progress = True
        old_primary = self.current_primary
        try:
            # Step 0: confirm the death (guards against probe blips).
            yield self.config.confirm_delay
            try:
                yield self._ping(old_primary)
                self._trace("semisync.failover_aborted", reason="primary recovered")
                return
            except SimTimeoutError:
                pass
            # Step 1: wait in the automation work queue.
            yield self._think(self.config.queue_delay_median, self.config.queue_delay_sigma)
            # Step 2: distributed lock + safety checks.
            yield self._think(
                self.config.failover_step_median, self.config.failover_step_sigma
            )
            # Step 3: collect positions from replicas and logtailers.
            candidates = [n for n in self.database_names if n != old_primary]
            positions = yield from self._collect_positions(
                candidates + self._all_acker_names()
            )
            db_positions = {
                n: p for n, p in positions.items()
                if p.get("kind") == "mysql" and p.get("failover_capable")
            }
            if not db_positions:
                raise ControlPlaneError("no failover-capable replica reachable")
            best = max(db_positions, key=lambda n: db_positions[n]["last"])
            # Step 4: reconcile semi-sync-acked transactions from the
            # logtailers (they may hold acked entries no replica has).
            acker_best = max(
                (p["last"] for n, p in positions.items() if p.get("kind") == "acker"),
                default=OpId.zero(),
            )
            yield self._think(
                self.config.failover_step_median, self.config.failover_step_sigma
            )
            if acker_best > db_positions[best]["last"]:
                source = max(
                    (n for n, p in positions.items() if p.get("kind") == "acker"),
                    key=lambda n: positions[n]["last"],
                )
                yield from self._reconcile_from_acker(best, source, acker_best)
            # Step 5: promote.
            yield from self._promote(best, positions)
            # Step 6: re-point the remaining replicas, serially.
            yield from self._repoint_all(best, exclude=(best, old_primary))
            self.discovery.publish_primary(self.replicaset, best)
            self.current_primary = best
            self.failovers_completed += 1
            self._trace("semisync.failover_done", new_primary=best)
            # Step 7: watch for the old primary coming back; rebuild it.
            self.host.spawn(
                self._rebuild_when_back(old_primary, best), label="automation:rebuild"
            )
        except (ControlPlaneError, SimTimeoutError) as err:
            self._trace("semisync.failover_failed", error=str(err))
            # Retry from scratch after a back-off.
            self.host.call_after(
                self.config.health_check_interval,
                lambda: self.host.spawn(self._failover(), label="automation:failover-retry"),
            )
        finally:
            self._failover_in_progress = False

    def _reconcile_from_acker(self, replica: str, acker: str, target: OpId):
        deadline = self.host.loop.now + self.config.catchup_timeout
        while self.host.loop.now < deadline:
            yield self._rpc(replica, "fetch_tail", {"acker": acker})
            yield self.config.catchup_poll_interval
            positions = yield from self._collect_positions([replica])
            if positions and positions[replica]["last"] >= target:
                return
        raise ControlPlaneError(f"{replica} could not reconcile acker tail")

    def _promote(self, name: str, positions: dict):
        generation = max((p["last"].term for p in positions.values()), default=0) + 1
        region = self.member_regions[name]
        ackers = self.acker_names_by_region.get(region, [])
        reply = yield self._rpc(
            name,
            "promote",
            {
                "generation": generation,
                "ship_targets": self._ship_targets_for(name),
                "ackers": ackers,
            },
            timeout=30.0,
        )
        if not reply.ok:
            raise ControlPlaneError(f"promotion of {name} failed: {reply.error}")

    def _repoint_all(
        self,
        new_primary: str,
        exclude: tuple,
        step_median: float | None = None,
        step_sigma: float | None = None,
    ):
        median = step_median if step_median is not None else self.config.failover_step_median
        sigma = step_sigma if step_sigma is not None else self.config.failover_step_sigma
        for name in self.database_names:
            if name in exclude:
                continue
            yield self._think(median, sigma)
            try:
                yield self._rpc(name, "repoint", {"primary": new_primary}, timeout=5.0)
            except SimTimeoutError:
                continue  # dead replica; it will be rebuilt when it returns

    def _rebuild_when_back(self, old_primary: str, new_primary: str):
        while True:
            yield self.config.health_check_interval
            if self.current_primary != new_primary:
                return  # another failover superseded us
            try:
                yield self._ping(old_primary)
            except SimTimeoutError:
                continue
            # It's back: wipe and re-seed it (the prior setup's answer to
            # possibly-diverged engine state on an old primary).
            try:
                yield self._rpc(old_primary, "rebuild", {"primary": new_primary}, timeout=30.0)
                yield self._rpc(new_primary, "add_targets", {"targets": [old_primary]})
            except SimTimeoutError:
                continue
            self._trace("semisync.old_primary_rebuilt", member=old_primary)
            return

    # -- graceful promotion ----------------------------------------------------------------------

    def graceful_promotion(self, target: str):
        """Coroutine: operator-initiated planned promotion (maintenance)."""
        if self._failover_in_progress:
            raise ControlPlaneError("failover in progress")
        old_primary = self.current_primary
        if old_primary is None:
            raise ControlPlaneError("no known primary")
        cfg = self.config
        # Quiesce the primary (stop client writes; replication continues),
        # then let in-flight transactions drain.
        yield self._think(cfg.graceful_step_median, cfg.graceful_step_sigma)
        yield self._rpc(old_primary, "set_read_only")
        yield cfg.quiesce_drain
        # Wait for the target to fully catch up.
        deadline = self.host.loop.now + cfg.catchup_timeout
        primary_pos = None
        while self.host.loop.now < deadline:
            positions = yield from self._collect_positions([old_primary, target])
            if old_primary in positions and target in positions:
                primary_pos = positions[old_primary]["last"]
                if positions[target]["last"] >= primary_pos:
                    break
            yield cfg.catchup_poll_interval
        else:
            raise ControlPlaneError(f"{target} never caught up")
        # Promote and demote.
        yield self._think(cfg.graceful_step_median, cfg.graceful_step_sigma)
        yield from self._promote(target, {"old": {"last": primary_pos}})
        yield self._rpc(old_primary, "demote_to_replica", {"upstream": target})
        yield self._rpc(target, "add_targets", {"targets": [old_primary]})
        yield from self._repoint_all(
            target,
            exclude=(target, old_primary),
            step_median=cfg.graceful_step_median,
            step_sigma=cfg.graceful_step_sigma,
        )
        self.discovery.publish_primary(self.replicaset, target)
        self.current_primary = target
        self.promotions_completed += 1
        self._trace("semisync.promotion_done", new_primary=target)
        return True
