"""Regression tests for snapshot-install safety invariants.

Covers the ack-position contract (a done response must never advance the
leader's match_index past the image OpId it actually verified), a member
that catches up through the log while an image is on its way (it is not
rolled back to the image), and the preservation of the image's
membership config_index across an install.
"""

from dataclasses import replace

from repro.raft.log_storage import InMemoryLogStorage, LogEntry
from repro.raft.membership import MembershipConfig
from repro.raft.messages import InstallSnapshotChunk, InstallSnapshotRequest, InstallSnapshotResponse
from repro.raft.types import OpId
from repro.snapshot.installer import SnapshotInstaller
from repro.snapshot.transfer import LeaderSnapshotShipper, SnapshotManager, _Session
from repro.snapshot.producer import build_image

from tests.raft.harness import RaftRing, voter


class FakeDisk:
    def __init__(self):
        self._ns = {}

    def namespace(self, name):
        return self._ns.setdefault(name, {})


class FakeHost:
    def __init__(self):
        self.disk = FakeDisk()

    class loop:
        now = 0.0

    def send(self, *a, **k):
        pass

    def call_after(self, *a, **k):
        pass


class FakeNode:
    def __init__(self, storage, term=5, name="db2"):
        self.storage = storage
        self.current_term = term
        self.name = name
        self.is_leader = True


def offer_for(image) -> InstallSnapshotRequest:
    return InstallSnapshotRequest(
        term=5,
        leader="db1",
        snapshot_id=image.snapshot_id,
        last_opid=image.last_opid,
        members_wire=tuple(image.members_wire),
        config_index=image.config_index,
        total_chunks=image.total_chunks,
        total_bytes=image.total_bytes,
        checksum=image.checksum,
    )


class TestAckPosition:
    def test_already_covered_offer_acks_image_opid_not_log_tip(self):
        # Follower log matches the image through index 42 but carries a
        # suffix (43..50) the leader never verified — e.g. uncommitted
        # entries from a deposed leader. Acking the tip would inflate
        # match_index on the shipping leader (commit-safety violation).
        storage = InMemoryLogStorage()
        storage.append([LogEntry(OpId(3, i), b"x") for i in range(1, 43)])
        storage.append([LogEntry(OpId(4, i), b"y") for i in range(43, 51)])
        node = FakeNode(storage)
        installer = SnapshotInstaller(FakeHost(), node, install_fn=lambda image: None)

        image = build_image(
            source="db1",
            taken_at=1.0,
            last_opid=OpId(3, 42),
            executed_gtids="UUID:1-42",
            tables={},
        )
        response = installer.handle_offer(offer_for(image))
        assert response.done
        assert response.last_opid == OpId(3, 42)
        assert response.last_opid != storage.last_opid()

    def test_shipper_advances_match_only_to_image_opid(self):
        # Even if a (buggy or divergent) follower reports a bigger
        # last_opid in its done response, the leader must only trust the
        # image it shipped.
        image = build_image(
            source="db1",
            taken_at=1.0,
            last_opid=OpId(3, 42),
            executed_gtids="UUID:1-42",
            tables={},
        )
        host = FakeHost()
        node = FakeNode(InMemoryLogStorage(), name="db1")
        shipper = LeaderSnapshotShipper(host, node, produce_image=lambda _: None)
        shipper.sessions["db2"] = _Session(
            peer="db2", term=5, image=image, last_activity=0.0
        )
        response = InstallSnapshotResponse(
            term=5,
            follower="db2",
            snapshot_id=image.snapshot_id,
            next_seq=image.total_chunks,
            success=True,
            done=True,
            last_opid=OpId(4, 50),  # inflated follower tip
        )
        installed = shipper.handle_response("db2", response)
        assert installed == OpId(3, 42)


class TestCaughtUpDuringTransfer:
    def test_member_that_caught_up_through_the_log_keeps_its_state(self):
        # The offer found the member behind the image, but the entries
        # reached it through its region's head before the last chunk did.
        # Installing then would roll back state it has already committed.
        storage = InMemoryLogStorage()
        storage.append([LogEntry(OpId(3, i), b"x") for i in range(1, 41)])
        installed = []
        installer = SnapshotInstaller(FakeHost(), FakeNode(storage), install_fn=installed.append)
        image = build_image(
            source="db1",
            taken_at=1.0,
            last_opid=OpId(3, 42),
            executed_gtids="UUID:1-42",
            tables={},
        )
        response = installer.handle_offer(replace(offer_for(image), chunk_digests=image.chunk_digests))
        assert not response.done
        storage.append([LogEntry(OpId(3, i), b"x") for i in range(41, 60)])
        for seq, data in enumerate(image.chunks):
            response = installer.handle_chunk(
                InstallSnapshotChunk(
                    term=5,
                    leader="db1",
                    snapshot_id=image.snapshot_id,
                    seq=seq,
                    data=data,
                    is_last=seq == image.total_chunks - 1,
                )
            )
        assert response.done and response.last_opid == OpId(3, 42)
        assert installed == [] and storage.last_opid() == OpId(3, 59)


class TestAdoptConfigIndex:
    def test_adopt_snapshot_preserves_image_config_index(self):
        ring = RaftRing([voter("db1"), voter("db2"), voter("db3")])
        node = ring.node("db2")
        wire = MembershipConfig(
            (voter("db1"), voter("db2"), voter("db3"), voter("db4"))
        ).to_wire()
        SnapshotManager(ring.host("db2"), node).adopt(OpId(2, 10), members_wire=wire, config_index=7)
        # The fallback (log holds no CONFIG entry) must carry the image's
        # config_index, not reset ordering to 0.
        assert node.membership.config_index == 7
        assert node._durable["bootstrap_config_index"] == 7
        assert "db4" in node.membership
        # Survives a restart: volatile state is rebuilt from durable.
        node._init_volatile()
        assert node.membership.config_index == 7
