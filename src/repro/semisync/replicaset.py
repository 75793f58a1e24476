"""A running semi-sync (prior setup) replicaset — the evaluation baseline.

Mirrors :class:`repro.cluster.MyRaftReplicaset`'s interface so experiments
can run both systems over identical topologies, networks, and workloads.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.replicaset import paper_network_spec
from repro.cluster.topology import ReplicaSetSpec
from repro.control.discovery import ServiceDiscovery
from repro.errors import ReproError
from repro.mysql.server import ServerRole
from repro.mysql.timing import TimingProfile, semisync_profile
from repro.semisync.automation import FailoverAutomation, SemiSyncAutomationConfig
from repro.semisync.server import SemiSyncAcker, SemiSyncServer
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import Network, NetworkSpec
from repro.sim.rng import RngStream
from repro.sim.tracing import Tracer


class SemiSyncReplicaset:
    """One simulated prior-setup replicaset, fully wired."""

    def __init__(
        self,
        spec: ReplicaSetSpec,
        seed: int = 1,
        automation_config: SemiSyncAutomationConfig | None = None,
        network_spec: NetworkSpec | None = None,
        timing: TimingProfile | None = None,
        trace_capacity: int | None = None,
    ) -> None:
        self.spec = spec
        self.loop = EventLoop()
        self.rng = RngStream(seed)
        self.tracer = Tracer(self.loop, capacity=trace_capacity)
        self.net = Network(
            self.loop, self.rng, spec=network_spec or paper_network_spec(), tracer=self.tracer
        )
        self.discovery = ServiceDiscovery(self.loop)
        self.timing = timing or semisync_profile()
        self.membership = spec.membership()

        self.hosts: dict[str, Host] = {}
        self.services: dict[str, Any] = {}
        acker_names_by_region: dict[str, list[str]] = {}
        member_regions: dict[str, str] = {}
        database_names: list[str] = []
        for member in self.membership.members:
            host = Host(self.loop, self.net, member.name, member.region, tracer=self.tracer)
            member_regions[member.name] = member.region
            if member.has_storage_engine:
                service: Any = SemiSyncServer(
                    host, self.timing, self.rng, failover_capable=member.is_voter
                )
                database_names.append(member.name)
            else:
                service = SemiSyncAcker(host, self.timing, self.rng)
                acker_names_by_region.setdefault(member.region, []).append(member.name)
            host.attach_service(service)
            self.hosts[member.name] = host
            self.services[member.name] = service

        # The control plane lives on its own host in the primary's region.
        automation_host = Host(
            self.loop, self.net, "automation", spec.regions[0].name, tracer=self.tracer
        )
        self.automation = FailoverAutomation(
            host=automation_host,
            config=automation_config or SemiSyncAutomationConfig(),
            discovery=self.discovery,
            replicaset=spec.replicaset_id,
            database_names=database_names,
            acker_names_by_region=acker_names_by_region,
            member_regions=member_regions,
            rng=self.rng,
        )
        automation_host.attach_service(self.automation)
        self.hosts["automation"] = automation_host

    # -- access -------------------------------------------------------------------

    def server(self, name: str) -> SemiSyncServer:
        service = self.services[name]
        if not isinstance(service, SemiSyncServer):
            raise ReproError(f"{name!r} is not a database server")
        return service

    def acker(self, name: str) -> SemiSyncAcker:
        service = self.services[name]
        if not isinstance(service, SemiSyncAcker):
            raise ReproError(f"{name!r} is not an acker")
        return service

    def database_services(self) -> list[SemiSyncServer]:
        return [s for s in self.services.values() if isinstance(s, SemiSyncServer)]

    def primary_service(self) -> SemiSyncServer | None:
        candidates = [
            s
            for s in self.database_services()
            if self.hosts[s.host.name].alive
            and s.mysql.role == ServerRole.PRIMARY
            and not s.mysql.read_only
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.generation)

    # -- lifecycle -----------------------------------------------------------------

    def bootstrap(self, timeout: float = 10.0) -> SemiSyncServer:
        """Promote the spec's initial primary and start monitoring."""
        primary_name = self.spec.initial_primary()
        primary = self.server(primary_name)
        region = self.membership.member(primary_name).region
        ackers = [
            m.name
            for m in self.membership.members
            if not m.has_storage_engine and m.region == region
        ]
        targets = [n for n in self.services if n != primary_name]

        def boot():
            yield from primary.become_primary(1, targets, ackers)

        self.hosts[primary_name].spawn(boot(), label="bootstrap")
        deadline = self.loop.now + timeout
        while self.loop.now < deadline:
            self.run(0.05)
            if self.primary_service() is not None:
                break
        else:
            raise ReproError("semisync bootstrap did not produce a primary")
        self.discovery.publish_primary(self.spec.replicaset_id, primary_name)
        self.automation.start_monitoring(primary_name)
        return primary

    def run(self, seconds: float) -> None:
        self.loop.run_for(seconds, max_events=50_000_000)

    def crash(self, name: str) -> None:
        self.hosts[name].crash()

    def restart(self, name: str) -> None:
        self.hosts[name].restart()

    # -- operations -------------------------------------------------------------------

    def write(self, table: str, rows: dict):
        primary = self.primary_service()
        if primary is None:
            raise ReproError("no writable primary")
        return primary.submit_write(table, rows)

    def write_and_run(self, table: str, rows: dict, seconds: float = 1.0):
        process = self.write(table, rows)
        self.run(seconds)
        return process

    def transfer_leadership(self, target: str):
        """Operator-driven graceful promotion of ``target``; the process
        resolves True once the automation has published it."""
        return self.hosts["automation"].spawn(
            self.automation.graceful_promotion(target), label="graceful-promotion"
        )

    def wait_for_primary(
        self, timeout: float = 300.0, step: float = 0.25, exclude: str | None = None
    ) -> SemiSyncServer:
        deadline = self.loop.now + timeout
        while self.loop.now < deadline:
            self.run(step)
            primary = self.primary_service()
            if primary is not None and primary.host.name != exclude:
                return primary
        raise ReproError(f"no writable primary within {timeout}s")

    # -- §5.1-style checks ----------------------------------------------------------------

    def databases_converged(self) -> bool:
        live = [s for s in self.database_services() if self.hosts[s.host.name].alive]
        if len(live) < 2:
            return True
        reference = live[0]
        return all(
            s.mysql.checksum() == reference.mysql.checksum()
            and s.mysql.engine.executed_gtids == reference.mysql.engine.executed_gtids
            for s in live[1:]
        )

    def status(self) -> dict[str, Any]:
        return {
            name: service.status()
            for name, service in self.services.items()
            if hasattr(service, "status")
        }
