"""Service discovery (§3.3 step 5, §5.2 step 5).

Clients find the primary through here. Publication is the final step of
promotion orchestration, so the window between a role change and its
publication is part of measured client downtime — exactly how the paper
accounts promotion/failover times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.loop import EventLoop


@dataclass(frozen=True)
class DiscoveryRecord:
    time: float
    replicaset: str
    primary: str | None
    role: str


@dataclass
class ServiceDiscovery:
    """A registry of replicaset → current primary."""

    loop: EventLoop
    _primaries: dict[str, str | None] = field(default_factory=dict)
    history: list[DiscoveryRecord] = field(default_factory=list)

    def publish_primary(self, replicaset: str, primary: str | None) -> None:
        self._primaries[replicaset] = primary
        self.history.append(
            DiscoveryRecord(self.loop.now, replicaset, primary, "primary")
        )

    def lookup_primary(self, replicaset: str) -> str | None:
        return self._primaries.get(replicaset)
