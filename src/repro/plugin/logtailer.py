"""Logtailer: a witness member (§2.1, Table 1).

Logtailers are Raft voters that store the replicated log but have no
storage engine; in the prior setup they were the semi-sync ackers. In
FlexiRaft's single-region-dynamic mode the leader's two in-region
logtailers form the data-commit quorum with it. A logtailer can win an
election (longest log), in which case the Raft node's witness-handoff
logic transfers leadership to a database member.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RaftError
from repro.mysql.log_manager import MySQLLogManager
from repro.mysql.timing import TimingProfile
from repro.plugin.binlog_storage import BinlogFsyncTiming, BinlogHooks, BinlogRaftLogStorage
from repro.raft.config import RaftConfig
from repro.raft.membership import MembershipConfig
from repro.raft.node import RaftNode
from repro.raft.quorum import QuorumPolicy
from repro.sim.host import Host
from repro.sim.rng import RngStream


class LogtailerService:
    """Host service: a log-only Raft voter."""

    def __init__(
        self,
        host: Host,
        membership: MembershipConfig,
        policy: QuorumPolicy,
        raft_config: RaftConfig,
        timing: TimingProfile,
        rng: RngStream,
        router: Any | None = None,
        replicaset: str = "rs0",
    ) -> None:
        member = membership.member(host.name)
        if member is None or member.has_storage_engine:
            raise RaftError(f"{host.name} is not declared as a witness in the membership")
        self.host = host
        self.replicaset = replicaset
        self.raft_config = raft_config
        self.log_manager = MySQLLogManager(host.disk.namespace("mysqllog"), persona="relay")
        self.storage = BinlogRaftLogStorage(self.log_manager)
        self.node = RaftNode(
            host=host,
            config=raft_config,
            storage=self.storage,
            policy=policy,
            membership=membership,
            # Payload factories only: there is no database to orchestrate.
            hooks=BinlogHooks(),
            timing=BinlogFsyncTiming(timing, rng, "logtailer-disk"),
            rng=rng,
            router=router,
            ring_id=replicaset,
        )
        self._wire_snapshots()

    def _wire_snapshots(self) -> None:
        """Install-only: a witness holds no engine state to serialize, but
        a leader with a purged log must still be able to re-seed it (the
        log below the image's OpId is simply gone — witnesses never serve
        reads, so only the Raft metadata matters)."""
        from repro.snapshot import SnapshotManager

        SnapshotManager(self.host, self.node, install_image=self._install_snapshot_image)

    def _install_snapshot_image(self, image) -> None:
        self.host.disk.namespace("mysqllog").clear()
        self.log_manager = MySQLLogManager(self.host.disk.namespace("mysqllog"), persona="relay")
        self.storage.reload(self.log_manager)
        self.storage.seed_base(image.last_opid)
        self.node.snapshots.adopt(image.last_opid, image.members_wire, image.config_index)

    def handle_message(self, src: str, message: Any) -> None:
        if not type(message).__module__.startswith("repro.raft"):
            return  # stale prior-setup traffic right after a rollout
        self.node.handle_message(src, message)

    def on_crash(self) -> None:
        self.node.on_crash()

    def on_restart(self) -> None:
        self.log_manager = MySQLLogManager(self.host.disk.namespace("mysqllog"))
        self.storage.reload(self.log_manager)
        self.node.on_restart()
        self._wire_snapshots()

    def status(self) -> dict[str, Any]:
        return {
            "name": self.host.name,
            "kind": "logtailer",
            "log_files": len(self.log_manager.index),
            "raft": self.node.status(),
        }
