"""Shared harness for Raft protocol tests: build rings on the simulator."""

from __future__ import annotations

from repro.flexiraft import FlexiMode, FlexiRaftPolicy
from repro.raft.config import RaftConfig
from repro.raft.hooks import RaftHooks, TimingModel
from repro.raft.log_storage import InMemoryLogStorage
from repro.raft.membership import MembershipConfig
from repro.raft.messages import (
    RPC_HEADER_BYTES,
    AppendEntriesRequest,
    AppendEntriesResponse,
    InstallSnapshotChunk,
    InstallSnapshotRequest,
    InstallSnapshotResponse,
    RequestVoteRequest,
    RequestVoteResponse,
    VoteRetraction,
)
from repro.raft.node import RaftNode
from repro.raft.quorum import MajorityQuorum, QuorumPolicy
from repro.raft.types import MemberInfo, MemberType, RaftRole
from repro.sim.host import Host
from repro.sim.loop import EventLoop
from repro.sim.network import FixedLatency, Network, NetworkSpec, message_wire_size
from repro.sim.rng import RngStream
from repro.sim.tracing import Tracer


def voter(name: str, region: str = "r1", engine: bool = True) -> MemberInfo:
    return MemberInfo(name, region, MemberType.VOTER, has_storage_engine=engine)


def witness(name: str, region: str = "r1") -> MemberInfo:
    return MemberInfo(name, region, MemberType.VOTER, has_storage_engine=False)


def learner(name: str, region: str = "r1") -> MemberInfo:
    return MemberInfo(name, region, MemberType.NON_VOTER, has_storage_engine=True)


def record_sends(net) -> list:
    """Every ``(src, dst, message)`` handed to ``net`` from now on."""
    sent = []
    deliver = net.send

    def send(src, dst, message):
        sent.append((src, dst, message))
        deliver(src, dst, message)

    net.send = send
    return sent


def wan_entries_into(sent, region_of: dict, region: str) -> int:
    """Log entries that crossed the WAN into ``region`` as AppendEntries
    payload, among recorded sends: its payload copies, counted."""
    return sum(
        len(m.entries) for src, dst, m in sent
        if isinstance(m, AppendEntriesRequest) and region_of[dst] == region != region_of[src]
    )


WAN_KINDS = (
    "fanout", "direct", "proxy_op", "probe", "ack", "folded", "vote", "snapshot", "other",
)


def wan_kind(message) -> str:
    """Which of :data:`WAN_KINDS` a message's bytes count under: payload a
    head forwards to riders (``fanout``) or that serves its addressee
    alone (``direct``), PROXY_OP metadata, an empty append (``probe``: a
    heartbeat or a probe of a silent peer), an append response, election
    traffic, snapshot transfer, or anything else. (The rider ids a head
    folded into its ack count as ``folded``: see :func:`wan_bytes_by_kind`.)"""
    if isinstance(message, AppendEntriesRequest):
        if message.entries:
            return "fanout" if message.fanout else "direct"
        return "proxy_op" if message.proxy_opids else "probe"
    if isinstance(message, AppendEntriesResponse):
        return "ack"
    if isinstance(message, (RequestVoteRequest, RequestVoteResponse, VoteRetraction)):
        return "vote"
    if isinstance(
        message,
        (InstallSnapshotRequest, InstallSnapshotChunk, InstallSnapshotResponse),
    ):
        return "snapshot"
    return "other"


def wan_bytes_by_kind(sent, region_of: dict) -> dict[str, int]:
    """Wire bytes of the recorded sends that cross regions, by
    :func:`wan_kind`; an ack's own header counts as ``ack`` and the rider
    ids folded into it as ``folded``. Every kind is present, zero or not."""
    totals = dict.fromkeys(WAN_KINDS, 0)
    for src, dst, message in sent:
        if region_of.get(src) != region_of.get(dst):
            size = message_wire_size(message)
            if isinstance(message, AppendEntriesResponse) and message.riders:
                totals["folded"] += size - RPC_HEADER_BYTES
                size = RPC_HEADER_BYTES
            totals[wan_kind(message)] += size
    return totals


class RaftRing:
    """A complete simulated Raft ring over in-memory log storage."""

    def __init__(
        self,
        members: list[MemberInfo],
        seed: int = 1,
        raft_config: RaftConfig | None = None,
        policy: QuorumPolicy | None = None,
        network_spec: NetworkSpec | None = None,
        timing: TimingModel | None = None,
        hooks_factory=None,
        router=None,
    ) -> None:
        self.loop = EventLoop()
        self.rng = RngStream(seed)
        self.tracer = Tracer(self.loop)
        spec = network_spec or NetworkSpec(
            in_region=FixedLatency(0.001),
            cross_region=FixedLatency(0.030),
        )
        self.net = Network(self.loop, self.rng, spec=spec, tracer=self.tracer)
        self.membership = MembershipConfig(tuple(members))
        self.config = raft_config or RaftConfig()
        self.policy = policy or MajorityQuorum()
        self.hosts: dict[str, Host] = {}
        self.nodes: dict[str, RaftNode] = {}
        for member in members:
            host = Host(self.loop, self.net, member.name, member.region, tracer=self.tracer)
            storage = InMemoryLogStorage(host.disk.namespace("raftlog"))
            node = RaftNode(
                host=host,
                config=self.config,
                storage=storage,
                policy=self.policy,
                membership=self.membership,
                hooks=hooks_factory(member.name) if hooks_factory else RaftHooks(),
                timing=timing,
                rng=self.rng,
                router=router,
            )
            host.attach_service(node)
            self.hosts[member.name] = host
            self.nodes[member.name] = node

    # -- convenience -----------------------------------------------------------

    def add_host(self, member: MemberInfo) -> RaftNode:
        """Allocate and prepare a fresh node for a pending AddMember (what
        control-plane automation does before invoking the change)."""
        host = Host(self.loop, self.net, member.name, member.region, tracer=self.tracer)
        storage = InMemoryLogStorage(host.disk.namespace("raftlog"))
        node = RaftNode(
            host=host,
            config=self.config,
            storage=storage,
            policy=self.policy,
            membership=self.membership.with_added(member, 0),
            rng=self.rng,
        )
        host.attach_service(node)
        self.hosts[member.name] = host
        self.nodes[member.name] = node
        return node

    def node(self, name: str) -> RaftNode:
        return self.nodes[name]

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def run(self, seconds: float) -> None:
        self.loop.run_for(seconds, max_events=2_000_000)

    def bootstrap(self, leader_name: str) -> RaftNode:
        node = self.nodes[leader_name]
        node.bootstrap_as_initial_leader()
        self.run(0.5)  # let the first heartbeats establish authority
        return node

    def leaders(self, alive_only: bool = True) -> list[RaftNode]:
        return [
            n
            for n in self.nodes.values()
            if n.role == RaftRole.LEADER and (not alive_only or self.hosts[n.name].alive)
        ]

    def current_leader(self) -> RaftNode | None:
        alive = self.leaders()
        if not alive:
            return None
        # With stale leaders possible mid-transition, newest term wins.
        return max(alive, key=lambda n: n.current_term)

    def wait_for_leader(
        self, timeout: float = 20.0, step: float = 0.1, exclude: str | None = None
    ) -> RaftNode:
        """Run until a leader exists; ``exclude`` skips a known stale
        leader (e.g. one that is isolated and cannot learn it lost)."""
        deadline = self.loop.now + timeout
        while self.loop.now < deadline:
            self.run(step)
            leader = self.current_leader()
            if leader is not None and leader.name != exclude:
                return leader
        raise AssertionError(f"no leader elected within {timeout}s")

    def propose_on_leader(self, payload: bytes = b"x"):
        leader = self.current_leader()
        assert leader is not None, "no leader"
        return leader.propose(lambda opid: payload)

    def commit_and_run(self, payload: bytes = b"x", seconds: float = 1.0):
        opid, future = self.propose_on_leader(payload)
        self.run(seconds)
        return opid, future

    def logs_consistent_up_to_commit(self) -> bool:
        """Every pair of nodes agrees on all entries both have, up to the
        minimum commit index — the state-machine-safety check."""
        nodes = list(self.nodes.values())
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                horizon = min(a.commit_index, b.commit_index)
                for index in range(1, horizon + 1):
                    ea, eb = a.storage.entry(index), b.storage.entry(index)
                    if ea is None or eb is None or ea.opid != eb.opid or ea.payload != eb.payload:
                        return False
        return True


def region_ring(regions: int = 3, **kwargs) -> RaftRing:
    """The paper's shape under FlexiRaft: per region a database (``db0``…)
    and two logtailer witnesses (``lt0a``, ``lt0b``…), 1 ms in-region,
    30 ms (60 ms RTT) between regions."""
    members = []
    for r in range(regions):
        members += [voter(f"db{r}", f"r{r}"), witness(f"lt{r}a", f"r{r}"), witness(f"lt{r}b", f"r{r}")]
    return RaftRing(members, policy=FlexiRaftPolicy(FlexiMode.SINGLE_REGION_DYNAMIC), **kwargs)


def three_node_ring(seed: int = 1, **kwargs) -> RaftRing:
    return RaftRing([voter("n1"), voter("n2"), voter("n3")], seed=seed, **kwargs)


def five_node_ring(seed: int = 1, **kwargs) -> RaftRing:
    return RaftRing(
        [voter(f"n{i}") for i in range(1, 6)],
        seed=seed,
        **kwargs,
    )
