"""Region-aware simulated network.

Hosts register under a unique name with a region label. ``send`` samples a
latency from the configured model for the (source-region, destination-
region) pair, accounts the message's wire size against that region pair,
and schedules delivery — unless a partition, isolation, or loss drop
applies.

Byte accounting is the measurement substrate for the paper's §4.2.2
proxying-bandwidth claim: experiments compare ``cross_region_bytes()``
between star and proxied topologies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import SimError
from repro.sim.loop import EventLoop
from repro.sim.rng import RngStream
from repro.sim.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.host import Host

DEFAULT_MESSAGE_BYTES = 256


class LatencyModel(ABC):
    """One-way message latency distribution."""

    @abstractmethod
    def sample(self, rng: RngStream) -> float:
        """Draw a one-way latency in seconds."""


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant latency; useful for exactly-reproducible unit tests."""

    latency: float

    def sample(self, rng: RngStream) -> float:
        return self.latency


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    low: float
    high: float

    def sample(self, rng: RngStream) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogNormalLatency(LatencyModel):
    """Lognormal latency parameterised by median; realistic heavy-ish tail.

    ``floor`` bounds the draw below (a packet cannot beat the speed of
    light), ``ceiling`` above (TCP retransmit cutoff in our model).
    """

    median: float
    sigma: float = 0.25
    floor: float = 0.0
    ceiling: float = float("inf")

    def sample(self, rng: RngStream) -> float:
        draw = rng.lognormal_from_median(self.median, self.sigma)
        return min(max(draw, self.floor), self.ceiling)


@dataclass
class NetworkSpec:
    """Latency topology for a simulation.

    ``region_pairs`` overrides the default cross-region model for specific
    (a, b) pairs; lookups are symmetric.
    """

    in_region: LatencyModel = field(default_factory=lambda: LogNormalLatency(75e-6, 0.3, floor=20e-6))
    cross_region: LatencyModel = field(default_factory=lambda: LogNormalLatency(30e-3, 0.15, floor=5e-3))
    region_pairs: dict[tuple[str, str], LatencyModel] = field(default_factory=dict)
    loss_probability: float = 0.0

    def model_for(self, region_a: str, region_b: str) -> LatencyModel:
        if region_a == region_b:
            return self.in_region
        override = self.region_pairs.get((region_a, region_b))
        if override is None:
            override = self.region_pairs.get((region_b, region_a))
        return override if override is not None else self.cross_region


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0
    drops: int = 0

    def account(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


def message_wire_size(message: Any) -> int:
    """Wire size of a message in bytes.

    Messages may expose ``wire_size()`` (method) or ``wire_size`` (int
    attribute); anything else is charged a flat default.
    """
    size = getattr(message, "wire_size", None)
    if callable(size):
        return int(size())
    if isinstance(size, int):
        return size
    return DEFAULT_MESSAGE_BYTES


class Network:
    """The message fabric connecting simulated hosts."""

    def __init__(
        self,
        loop: EventLoop,
        rng: RngStream,
        spec: NetworkSpec | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.loop = loop
        self.spec = spec or NetworkSpec()
        self._rng = rng.child("network")
        self.tracer = tracer
        self._hosts: dict[str, "Host"] = {}
        self._isolated: set[str] = set()
        self._blocked_links: set[frozenset[str]] = set()
        self._blocked_regions: set[frozenset[str]] = set()
        self.region_stats: dict[tuple[str, str], LinkStats] = {}
        self.link_stats: dict[tuple[str, str], LinkStats] = {}
        self.total_drops = 0
        # TCP-like FIFO per link: a message never overtakes an earlier one
        # on the same (src, dst) stream.
        self._link_clock: dict[tuple[str, str], float] = {}
        # Per-(src, dst) send fast path: resolved hosts, latency model,
        # and stats rows memoized on first send so the per-message cost
        # is one dict probe instead of five lookups plus two setdefaults.
        # Invalidated on membership change and on accounting reset (the
        # cached LinkStats rows must be the live dict entries).
        self._routes: dict[tuple[str, str], tuple[Any, Any, LatencyModel, LinkStats, LinkStats]] = {}

    # -- membership --------------------------------------------------------

    def register(self, host: "Host") -> None:
        if host.name in self._hosts:
            raise SimError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        self._routes.clear()

    def host(self, name: str) -> "Host":
        try:
            return self._hosts[name]
        except KeyError:
            raise SimError(f"unknown host {name!r}") from None

    def knows(self, name: str) -> bool:
        return name in self._hosts

    def region_of(self, name: str) -> str:
        return self.host(name).region

    # -- partitions --------------------------------------------------------

    def isolate(self, name: str) -> None:
        """Drop every message to/from ``name`` until healed."""
        self._isolated.add(name)

    def heal(self, name: str) -> None:
        self._isolated.discard(name)

    def block_link(self, a: str, b: str) -> None:
        self._blocked_links.add(frozenset((a, b)))

    def unblock_link(self, a: str, b: str) -> None:
        self._blocked_links.discard(frozenset((a, b)))

    def partition_regions(self, region_a: str, region_b: str) -> None:
        """Drop traffic between two regions (both directions)."""
        self._blocked_regions.add(frozenset((region_a, region_b)))

    def heal_regions(self, region_a: str, region_b: str) -> None:
        self._blocked_regions.discard(frozenset((region_a, region_b)))

    def isolate_region(self, region: str) -> None:
        """Cut a whole region off from every other region."""
        for other in {h.region for h in self._hosts.values()} - {region}:
            self.partition_regions(region, other)

    def heal_region(self, region: str) -> None:
        for pair in list(self._blocked_regions):
            if region in pair:
                self._blocked_regions.discard(pair)

    def heal_all(self) -> None:
        self._isolated.clear()
        self._blocked_links.clear()
        self._blocked_regions.clear()

    def path_blocked(self, src: str, dst: str) -> bool:
        if not (self._isolated or self._blocked_links or self._blocked_regions):
            return src not in self._hosts or dst not in self._hosts
        if src in self._isolated or dst in self._isolated:
            return True
        if frozenset((src, dst)) in self._blocked_links:
            return True
        src_host = self._hosts.get(src)
        dst_host = self._hosts.get(dst)
        if src_host is None or dst_host is None:
            return True
        return frozenset((src_host.region, dst_host.region)) in self._blocked_regions

    # -- data path ---------------------------------------------------------

    def send(self, src: str, dst: str, message: Any) -> None:
        """Fire-and-forget message delivery with simulated latency.

        Drops (partition, loss, dead destination) are silent to the sender,
        exactly like a UDP datagram or broken TCP stream mid-failure.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            src_host = self._hosts.get(src)
            if src_host is None:
                raise SimError(f"send from unknown host {src!r}")
            dst_host = self._hosts.get(dst)
            if dst_host is None:
                # Not memoizable — the destination may register later
                # (member replacement). Account the drop and bail, with
                # the same blocked-before-loss draw order as a live path.
                stats = self.region_stats.setdefault((src_host.region, "?"), LinkStats())
                link = self.link_stats.setdefault(key, LinkStats())
                stats.drops += 1
                link.drops += 1
                self.total_drops += 1
                if self.tracer is not None:
                    self.tracer.emit("net.drop", src=src, dst=dst, type=type(message).__name__)
                return
            cached = (
                src_host,
                dst_host,
                self.spec.model_for(src_host.region, dst_host.region),
                self.region_stats.setdefault((src_host.region, dst_host.region), LinkStats()),
                self.link_stats.setdefault(key, LinkStats()),
            )
            self._routes[key] = cached
        _src_host, _dst_host, model, stats, link = cached
        size = message_wire_size(message)

        if self.path_blocked(src, dst) or self._rng.bernoulli(self.spec.loss_probability):
            stats.drops += 1
            link.drops += 1
            self.total_drops += 1
            if self.tracer is not None:
                self.tracer.emit("net.drop", src=src, dst=dst, type=type(message).__name__)
            return

        stats.account(size)
        link.account(size)
        latency = model.sample(self._rng)
        deliver_at = self.loop.now + latency
        previous = self._link_clock.get(key, 0.0)
        if deliver_at <= previous:
            deliver_at = previous + 1e-9  # FIFO: queue behind the stream
        self._link_clock[key] = deliver_at
        # Delivery is scheduled closure-free: the Timer carries the bound
        # method plus an args tuple, so the per-message allocation is one
        # heap entry, not a fresh closure object per packet.
        self.loop.call_at(deliver_at, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        host = self._hosts.get(dst)
        if host is None or not host.alive or self.path_blocked(src, dst):
            self.total_drops += 1
            if self.tracer is not None:
                self.tracer.emit("net.drop_on_arrival", src=src, dst=dst, type=type(message).__name__)
            return
        host.receive(src, message)

    # -- accounting --------------------------------------------------------

    def bytes_between_regions(self, region_a: str, region_b: str) -> int:
        total = 0
        for (src_region, dst_region), stats in self.region_stats.items():
            if {src_region, dst_region} == {region_a, region_b}:
                total += stats.bytes
        return total

    def cross_region_bytes(self) -> int:
        return sum(
            stats.bytes
            for (src_region, dst_region), stats in self.region_stats.items()
            if src_region != dst_region
        )

    def in_region_bytes(self) -> int:
        return sum(
            stats.bytes
            for (src_region, dst_region), stats in self.region_stats.items()
            if src_region == dst_region
        )

    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self.region_stats.values())

    def link_bytes(self, src: str, dst: str) -> int:
        stats = self.link_stats.get((src, dst))
        return stats.bytes if stats else 0

    def coalescing_stats(self, src: str) -> dict[str, int]:
        """Always zero: the network sends every message on its own. Kept
        only because the end-to-end benchmark still reads it for its
        ``sim.net.coalesced_frac`` row; the two go together."""
        return {"coalesced_messages": 0}

    def reset_accounting(self) -> None:
        self.region_stats.clear()
        self.link_stats.clear()
        self.total_drops = 0
        # Cached routes point at the LinkStats rows just discarded;
        # rebuild them against the fresh dicts on next send.
        self._routes.clear()
