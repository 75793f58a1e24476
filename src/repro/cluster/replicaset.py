"""A running replicaset on the simulator.

:class:`Replicaset` is the operator shell both stacks share: the event
loop, network, discovery, one service per member, and operator-style
helpers (write, crash, restart, consistency checks).
:class:`MyRaftReplicaset` provisions MyRaft members (database servers
and logtailers) into it; the semi-sync baseline's replicaset provisions
its own.
"""

from __future__ import annotations

from typing import Any

from repro.control.discovery import ServiceDiscovery
from repro.errors import ReproError
from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.mysql.server import MySQLMember
from repro.mysql.timing import TimingProfile, myraft_profile
from repro.plugin.logtailer import LogtailerService
from repro.plugin.raft_plugin import MyRaftServer
from repro.raft.config import RaftConfig
from repro.raft.quorum import QuorumPolicy
from repro.raft.types import MemberInfo
from repro.cluster.topology import ReplicaSetSpec
from repro.snapshot import seed_engine_namespaces
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import LogNormalLatency, Network, NetworkSpec
from repro.sim.rng import RngStream
from repro.sim.tracing import Tracer


def paper_network_spec() -> NetworkSpec:
    """Default latency topology: ~75µs in-region, ~30ms cross-region."""
    return NetworkSpec(
        in_region=LogNormalLatency(75e-6, 0.3, floor=20e-6),
        cross_region=LogNormalLatency(30e-3, 0.15, floor=5e-3),
    )


class Replicaset:
    """The simulated world of one replicaset and the operator commands
    both stacks answer. Each stack sets ``wait_for_primary``'s default
    bound and poll grain, provisions its members (``provision`` builds a
    member's service over its host and hands both to ``register``), and
    supplies ``bootstrap`` and ``transfer_leadership``. Database members
    are :class:`MySQLMember` instances whatever their driver; each says
    whether it is a writable primary and of which term."""

    primary_wait_timeout = 30.0
    primary_wait_step = 0.05

    def __init__(
        self,
        spec: ReplicaSetSpec,
        seed: int,
        network_spec: NetworkSpec | None,
        timing: TimingProfile,
        trace_capacity: int | None,
    ) -> None:
        self.spec = spec
        self.loop = EventLoop()
        self.rng = RngStream(seed)
        self.tracer = Tracer(self.loop, capacity=trace_capacity)
        self.net = Network(
            self.loop,
            self.rng,
            spec=network_spec or paper_network_spec(),
            tracer=self.tracer,
        )
        self.discovery = ServiceDiscovery(self.loop)
        self.membership = spec.membership()
        self.timing = timing
        self.hosts: dict[str, Host] = {}
        self.services: dict[str, Any] = {}
        for member in self.membership.members:
            host = Host(self.loop, self.net, member.name, member.region, tracer=self.tracer)
            self.provision(host, member, self.membership)

    def register(self, host: Host, service: Any) -> None:
        """Make ``service`` the member's service on ``host``."""
        host.replace_service(service)
        self.hosts[host.name] = host
        self.services[host.name] = service

    # -- access ------------------------------------------------------------------

    def server(self, name: str) -> Any:
        service = self.services[name]
        if not isinstance(service, MySQLMember):
            raise ReproError(f"{name!r} is not a database server")
        return service

    def database_services(self) -> list[Any]:
        """Every database member, whichever replication driver runs it
        (mid-rollout, enable-raft leaves both kinds in one replicaset)."""
        return [s for s in self.services.values() if isinstance(s, MySQLMember)]

    def primary_service(self) -> Any:
        """The live writable primary, or None. Should a deposed one not
        know it yet, the newest term's wins."""
        candidates = [
            s
            for s in self.database_services()
            if self.hosts[s.host.name].alive and s.writable_primary()
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.primary_term)

    # -- lifecycle -----------------------------------------------------------------

    def wait_for_primary(
        self, timeout: float | None = None, step: float | None = None, exclude: str | None = None
    ) -> Any:
        """Run until a writable primary exists (by default within the
        stack's own bound); ``exclude`` skips a stale primary that cannot
        yet know it lost leadership (e.g. isolated)."""
        timeout = self.primary_wait_timeout if timeout is None else timeout
        step = self.primary_wait_step if step is None else step
        deadline = self.loop.now + timeout
        while self.loop.now < deadline:
            self.run(step)
            primary = self.primary_service()
            if primary is not None and primary.host.name != exclude:
                return primary
        raise ReproError(f"no writable primary within {timeout}s")

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

    # -- §5.1-style consistency checks ---------------------------------------------------

    def engine_checksums(self) -> dict[str, int]:
        return {
            s.host.name: s.mysql.checksum()
            for s in self.database_services()
            if self.hosts[s.host.name].alive
        }

    def databases_converged(self) -> bool:
        """True when every live database has identical engine content and
        identical executed GTID sets."""
        live = [
            s for s in self.database_services() if self.hosts[s.host.name].alive
        ]
        if len(live) < 2:
            return True
        reference = live[0]
        return all(
            s.mysql.checksum() == reference.mysql.checksum()
            and s.mysql.engine.executed_gtids == reference.mysql.engine.executed_gtids
            for s in live[1:]
        )

    def logs_prefix_equal(self) -> bool:
        """The log-equality invariant: all live members agree byte-for-byte
        on the replicated entries they share, aligned by Raft index.

        Members restored from backup hold only a suffix (their log starts
        at the snapshot base), so comparison covers the intersection of
        index ranges rather than assuming everyone starts at 1.
        """
        storages = []
        for name, service in self.services.items():
            if not self.hosts[name].alive:
                continue
            storage = getattr(service, "storage", None)
            if storage is not None and storage.last_opid().index > 0:
                storages.append(storage)
        if len(storages) < 2:
            return True
        start = max(s.first_index() for s in storages)
        end = min(s.last_opid().index for s in storages)
        reference = storages[0]
        for other in storages[1:]:
            for index in range(start, end + 1):
                a = reference.entry(index)
                b = other.entry(index)
                if a is None or b is None:
                    return False
                if a.opid != b.opid or a.payload != b.payload:
                    return False
        return True

    def status(self) -> dict[str, Any]:
        return {
            name: service.status()
            for name, service in self.services.items()
            if hasattr(service, "status")
        }


class MyRaftReplicaset(Replicaset):
    """One simulated MyRaft replicaset, fully wired."""

    # The ProxyRouter every member is built with (here, on re-image, on
    # restore, on AddMember). None: each node's own default, the paper's
    # region tree (§4.2). An A/B harness that wants direct delivery
    # subclasses with ``router = StaticProxyRouter({})``.
    router: Any | None = None

    def __init__(
        self,
        spec: ReplicaSetSpec,
        seed: int = 1,
        raft_config: RaftConfig | None = None,
        policy: QuorumPolicy | None = None,
        network_spec: NetworkSpec | None = None,
        timing: TimingProfile | None = None,
        trace_capacity: int | None = None,
    ) -> None:
        self.raft_config = raft_config or RaftConfig()
        self.policy = policy or FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC)
        # Safety monitor (repro.check.InvariantSuite.attach installs one);
        # provision() attaches it to every service built after that.
        self.monitor: Any | None = None
        super().__init__(spec, seed, network_spec, timing or myraft_profile(), trace_capacity)

    def provision(
        self, host: Host, member: MemberInfo, membership: Any, base_backup: Any = None
    ) -> Any:
        """Build ``member``'s service over ``host``'s disk and register it.

        Every way a member comes to exist goes through here: the initial
        ring, a reimage, a restore from backup and an AddMember
        allocation. With ``base_backup`` (a ``control.backup.Backup``) a
        database's disk is seeded from that image first — engine tables,
        executed GTIDs, the term floor — and its log starts logically
        right after the backup point, so the ring ships only the suffix
        (or a delta snapshot chained on the backup when the suffix is
        already compacted away)."""
        seeded = base_backup is not None and member.has_storage_engine
        if seeded:
            seed_engine_namespaces(
                host.disk,
                base_backup.tables,
                base_backup.executed_gtids,
                base_backup.last_opid,
            )
            host.disk.namespace("raft")["current_term"] = base_backup.last_opid.term
        common = dict(
            host=host,
            membership=membership,
            policy=self.policy,
            raft_config=self.raft_config,
            timing=self.timing,
            rng=self.rng,
            router=self.router,
            replicaset=self.spec.replicaset_id,
        )
        if member.has_storage_engine:
            service: Any = MyRaftServer(discovery=self.discovery, **common)
        else:
            service = LogtailerService(**common)
        if seeded:
            service.storage.seed_base(base_backup.last_opid)
        self.register(host, service)
        if self.monitor is not None:
            self.monitor.reset_member(member.name)
            service.node.monitor = self.monitor
        return service

    # -- access ------------------------------------------------------------------

    def logtailer(self, name: str) -> LogtailerService:
        service = self.services[name]
        if not isinstance(service, LogtailerService):
            raise ReproError(f"{name!r} is not a logtailer")
        return service

    def current_membership(self):
        """The ring's latest membership view: the live leader's if one
        exists, else the most recent config any live database holds,
        falling back to the construction-time bootstrap list."""
        primary = self.primary_service()
        if primary is not None:
            return primary.node.membership
        best = self.membership
        for service in self.database_services():
            if not self.hosts[service.host.name].alive:
                continue
            view = service.node.membership
            if view.config_index > best.config_index:
                best = view
        return best

    # -- lifecycle -----------------------------------------------------------------

    def bootstrap(self, timeout: float = 10.0) -> MyRaftServer:
        """Elect the spec's initial primary and wait until it accepts
        writes (promotion orchestration complete)."""
        primary_name = self.spec.initial_primary()
        self.server(primary_name).node.bootstrap_as_initial_leader()
        return self.wait_for_primary(timeout=timeout)

    def reimage_member(self, name: str, base_backup: Any = None) -> Any:
        """Replace ``name`` with a factory-fresh member: wipe the disk and
        start a brand-new service with an empty log. This is the worst-case
        bootstrap the snapshot subsystem exists for — the member rejoins
        holding nothing and must be caught up from the ring.

        With ``base_backup`` (a ``control.backup.Backup``), the wiped disk
        is re-seeded from that image first — the realistic automation flow
        (restore last night's backup, then catch up). The member then
        rejoins with a non-zero engine watermark, so a leader whose log no
        longer reaches back ships an incremental *delta* snapshot chained
        on the backup instead of the full image."""
        host = self.hosts.get(name)
        if host is None:
            raise ReproError(f"unknown member {name!r}")
        # Re-provision against the ring's *current* membership, not the
        # construction-time bootstrap list — the ring may have grown or
        # shrunk since (MembershipAutomation), and a stale config would
        # have the fresh member contacting removed peers until a snapshot
        # or CONFIG entry overwrites it. Read before the crash: with no
        # writable primary, the member may be the only live database that
        # holds the newest config.
        membership = self.current_membership()
        member = membership.member(name)
        if member is None:
            raise ReproError(f"unknown member {name!r}")
        if host.alive:
            host.crash()
        host.disk.wipe()
        host.resurrect()
        return self.provision(host, member, membership, base_backup)

    def transfer_leadership(self, target: str):
        primary = self.primary_service()
        if primary is None:
            raise ReproError("no primary to transfer from")
        return primary.node.transfer_leadership(target)
