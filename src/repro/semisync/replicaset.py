"""A running semi-sync (prior setup) replicaset — the evaluation baseline.

Shares :class:`repro.cluster.replicaset.Replicaset`'s operator shell with
:class:`repro.cluster.MyRaftReplicaset`, so experiments run both systems
over identical topologies, networks, and workloads; only the members'
replication driver and the failover automation differ.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.replicaset import Replicaset
from repro.cluster.topology import ReplicaSetSpec
from repro.errors import ReproError
from repro.mysql.server import ServerRole
from repro.mysql.timing import TimingProfile, semisync_profile
from repro.raft.types import MemberInfo
from repro.semisync.automation import FailoverAutomation, SemiSyncAutomationConfig
from repro.semisync.server import SemiSyncAcker, SemiSyncServer
from repro.sim.host import Host
from repro.sim.network import NetworkSpec


class SemiSyncReplicaset(Replicaset):
    """One simulated prior-setup replicaset, fully wired."""

    database_class = SemiSyncServer
    # Failover is minutes-scale here (Table 2): wait longer, poll coarser.
    primary_wait_timeout = 300.0
    primary_wait_step = 0.25

    def __init__(
        self,
        spec: ReplicaSetSpec,
        seed: int = 1,
        automation_config: SemiSyncAutomationConfig | None = None,
        network_spec: NetworkSpec | None = None,
        timing: TimingProfile | None = None,
        trace_capacity: int | None = None,
    ) -> None:
        super().__init__(spec, seed, network_spec, timing or semisync_profile(), trace_capacity)
        members = self.membership.members
        acker_names_by_region: dict[str, list[str]] = {}
        for member in members:
            if not member.has_storage_engine:
                acker_names_by_region.setdefault(member.region, []).append(member.name)
        # The control plane lives on its own host in the primary's region.
        automation_host = Host(
            self.loop, self.net, "automation", spec.regions[0].name, tracer=self.tracer
        )
        self.automation = FailoverAutomation(
            host=automation_host,
            config=automation_config or SemiSyncAutomationConfig(),
            discovery=self.discovery,
            replicaset=spec.replicaset_id,
            database_names=[m.name for m in members if m.has_storage_engine],
            acker_names_by_region=acker_names_by_region,
            member_regions={m.name: m.region for m in members},
            rng=self.rng,
        )
        automation_host.attach_service(self.automation)
        self.hosts["automation"] = automation_host

    def provision(self, host: Host, member: MemberInfo, membership: Any) -> Any:
        if member.has_storage_engine:
            service: Any = SemiSyncServer(
                host, self.timing, self.rng, failover_capable=member.is_voter
            )
        else:
            service = SemiSyncAcker(host, self.timing, self.rng)
        self.register(host, service)
        return service

    # -- access -------------------------------------------------------------------

    def acker(self, name: str) -> SemiSyncAcker:
        service = self.services[name]
        if not isinstance(service, SemiSyncAcker):
            raise ReproError(f"{name!r} is not an acker")
        return service

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

    def transfer_leadership(self, target: str):
        """Operator-driven graceful promotion of ``target``; the process
        resolves True once the automation has published it."""
        return self.hosts["automation"].spawn(
            self.automation.graceful_promotion(target), label="graceful-promotion"
        )
