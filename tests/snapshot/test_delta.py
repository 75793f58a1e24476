"""Delta snapshots: codec, dedupe, negotiation, fallback, timer hygiene.

Unit tests drive the delta codec and the shipper/installer negotiation
directly; the cluster tests run whole simulated replicasets through the
scenarios the delta path exists for — a short outage that re-catches-up
via a delta instead of a full image, a reimage seeded from a backup, a
transfer resumed across a leader change with content dedupe, and a
step-down mid-transfer that must leave no stray timers armed.
"""

import pytest

from repro.cluster import MyRaftReplicaset, RegionSpec, ReplicaSetSpec
from repro.control.backup import take_backup
from repro.mysql.tables import content_checksum
from repro.raft.log_storage import InMemoryLogStorage
from repro.raft.messages import InstallSnapshotRequest, InstallSnapshotResponse
from repro.raft.types import OpId
from repro.sim.loop import EventLoop
from repro.snapshot import apply_delta, assemble_image, build_delta, build_image, transfer
from repro.snapshot.installer import SnapshotInstaller
from repro.snapshot.transfer import LeaderSnapshotShipper

from tests.snapshot.test_shipping import (
    load,
    member_caught_up,
    pace_transfers,
    run_until,
    two_region_spec,
)


def base_tables(rows: int = 12) -> dict:
    return {"kv": {i: {"id": i, "v": "x" * 20} for i in range(rows)}}


def delta_image(base_index: int = 30, chunk_bytes: int = 64):
    changes = {"kv": {1: {"id": 1, "v": "updated"}, 2: None, 99: {"id": 99, "v": "new"}}}
    merged = {name: dict(rows) for name, rows in base_tables().items()}
    merged["kv"][1] = {"id": 1, "v": "updated"}
    merged["kv"][99] = {"id": 99, "v": "new"}
    del merged["kv"][2]
    return (
        build_delta(
            source="db1",
            taken_at=2.0,
            last_opid=OpId(3, 50),
            executed_gtids="UUID-DB1:1-50",
            base_index=base_index,
            changes=changes,
            state_crc=content_checksum(merged),
            chunk_bytes=chunk_bytes,
        ),
        merged,
    )


class TestDeltaCodec:
    def test_roundtrip_and_apply(self):
        image, merged = delta_image()
        assert image.kind == "delta"
        assert image.base_index == 30
        assert "delta30>3.50" in image.snapshot_id
        rebuilt = assemble_image(image.manifest(), dict(enumerate(image.chunks)))
        assert rebuilt.kind == "delta"
        assert rebuilt.upserts == {"kv": {1: {"id": 1, "v": "updated"}, 99: {"id": 99, "v": "new"}}}
        assert rebuilt.deletes == {"kv": [2]}
        applied = apply_delta(base_tables(), rebuilt)
        assert applied == merged
        assert content_checksum(applied) == image.state_crc

    def test_apply_does_not_mutate_base(self):
        image, _ = delta_image()
        base = base_tables()
        apply_delta(base, image)
        assert base == base_tables()

    def test_identical_content_identical_digests(self):
        # Content addressing must ignore provenance: two leaders imaging
        # the same engine state at the same OpId produce byte-identical
        # chunks, which is what cross-leader transfer dedupe relies on.
        kwargs = dict(
            last_opid=OpId(3, 42),
            executed_gtids="UUID:1-42",
            tables=base_tables(),
            chunk_bytes=64,
        )
        a = build_image(source="db1", taken_at=1.0, **kwargs)
        b = build_image(source="db2", taken_at=9.9, **kwargs)
        assert a.chunk_digests == b.chunk_digests
        assert a.checksum == b.checksum

    def test_content_checksum_matches_engine_checksum(self):
        from repro.mysql.engine import StorageEngine

        engine = StorageEngine({}, {})
        txn = engine.begin(1)
        engine.write_row(txn, "kv", 1, {"id": 1, "v": "x"})
        engine.write_row(txn, "kv", 2, {"id": 2, "v": "y"})
        engine.prepare(txn)
        txn.opid = OpId(1, 1)
        engine.commit(txn)
        tables = {name: engine.table(name).rows for name in engine.table_names()}
        assert engine.checksum() == content_checksum(tables)


class _Disk:
    def __init__(self):
        self._ns = {}

    def namespace(self, name):
        return self._ns.setdefault(name, {})


class _Host:
    """Minimal host over a real EventLoop so transfer timers are real."""

    def __init__(self, loop):
        self.loop = loop
        self.disk = _Disk()
        self.sent = []

    def send(self, dst, message):
        self.sent.append((dst, message))

    def call_after(self, delay, callback, *args):
        return self.loop.call_after(delay, callback, *args)


class _Node:
    def __init__(self, name="db1", term=5):
        self.name = name
        self.current_term = term
        self.is_leader = True
        self.storage = InMemoryLogStorage()


def full_image(rows: int = 40, chunk_bytes: int = 64):
    return build_image(
        source="db1",
        taken_at=1.0,
        last_opid=OpId(5, 100),
        executed_gtids="UUID:1-100",
        tables=base_tables(rows),
        chunk_bytes=chunk_bytes,
    )


@pytest.fixture
def shipper_pacing(monkeypatch):
    pace_transfers(monkeypatch, chunk_bytes=64, bytes_per_sec=1024.0, retry=0.5)
    return monkeypatch


class TestNegotiationAndFallback:
    def test_installer_rejects_delta_on_base_mismatch(self):
        host = _Host(EventLoop())
        node = _Node(name="db2")
        node.is_leader = False
        installer = SnapshotInstaller(
            host, node, install_fn=lambda image: None, engine_watermark=lambda: 50
        )
        image, _ = delta_image(base_index=40)  # held watermark is 50
        response = installer.handle_offer(
            InstallSnapshotRequest(
                term=5,
                leader="db1",
                snapshot_id=image.snapshot_id,
                last_opid=image.last_opid,
                members_wire=tuple(image.members_wire),
                config_index=image.config_index,
                total_chunks=image.total_chunks,
                total_bytes=image.total_bytes,
                checksum=image.checksum,
                kind="delta",
                base_index=image.base_index,
                state_crc=image.state_crc,
                chunk_digests=tuple(image.chunk_digests),
            )
        )
        assert not response.success
        assert installer.metrics["base_mismatches"] == 1

    def test_delta_rejection_falls_back_to_cached_full_image(self, shipper_pacing):
        loop = EventLoop()
        host = _Host(loop)
        node = _Node()
        image = full_image()
        delta, _ = delta_image()
        shipper = LeaderSnapshotShipper(
            host, node, produce_image=lambda _: image,
            produce_delta=lambda chunk_bytes, base: delta,
        )
        assert shipper.ship_to("db2", first_index=10)
        session = shipper.sessions["db2"]
        shipper._switch_image(session, delta)
        rejection = InstallSnapshotResponse(
            term=5,
            follower="db2",
            snapshot_id=delta.snapshot_id,
            next_seq=0,
            success=False,
        )
        shipper.handle_response("db2", rejection)
        assert shipper.metrics["delta_fallbacks"] == 1
        assert shipper.sessions["db2"].image is image  # back on the full image

    def test_cancel_all_disarms_every_timer(self, shipper_pacing):
        # Step-down mid-transfer: pending retry probes AND scheduled
        # chunk sends must all be disarmed — no stray armed timers may
        # remain in the loop (the leak the per-session tracking fixes).
        loop = EventLoop()
        host = _Host(loop)
        node = _Node()
        image = full_image(rows=60, chunk_bytes=64)
        assert image.total_chunks > 8
        shipper_pacing.setattr(transfer, "SNAPSHOT_MAX_INFLIGHT_CHUNKS", 16)
        shipper = LeaderSnapshotShipper(host, node, produce_image=lambda _: image)
        baseline = loop.stats()["armed_timers"]
        assert shipper.ship_to("db2", first_index=10)
        # A clean ack opens the window and schedules pipelined sends.
        shipper.handle_response(
            "db2",
            InstallSnapshotResponse(
                term=5, follower="db2", snapshot_id=image.snapshot_id,
                next_seq=1, success=True,
            ),
        )
        shipper.handle_response(
            "db2",
            InstallSnapshotResponse(
                term=5, follower="db2", snapshot_id=image.snapshot_id,
                next_seq=2, success=True,
            ),
        )
        assert loop.stats()["armed_timers"] > baseline  # transfer mid-flight
        shipper.cancel_all()
        assert loop.stats()["armed_timers"] == baseline
        assert shipper.sessions == {}


class TestDeltaEndToEnd:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        pace_transfers(monkeypatch, chunk_bytes=128, bytes_per_sec=2048.0, retry=0.2)

    def divergence(self, cluster, primary, writes: int = 12, keys: int = 2) -> None:
        """A burst over a small key subset, then rotate + compact so the
        log no longer reaches the absent member."""
        # Rotate first so a file boundary lands right past the absent
        # member's tip — the burst then lives in droppable files.
        primary.flush_binary_logs()
        cluster.run(1.0)
        for i in range(writes):
            key = i % keys
            primary.submit_write("kv", {key: {"id": key, "n": 10_000 + i, "v": "y" * 60}})
            cluster.run(0.05)
        cluster.run(1.0)
        primary.flush_binary_logs()
        cluster.run(1.0)
        assert primary.snapshot_and_compact()

    def test_short_outage_recatches_up_via_delta(self):
        cluster = MyRaftReplicaset(two_region_spec(), seed=21)
        primary = cluster.bootstrap()
        # A wide table the divergence never touches: what a full image
        # would re-ship and a delta must not.
        for start in range(0, 256, 64):
            rows = {pk: {"id": pk, "v": f"row-{pk * 7919 % 10007}"} for pk in range(start, start + 64)}
            primary.submit_write("wide", rows)
            cluster.run(0.05)
        load(cluster, primary, 60)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal))

        victim_tip = cluster.services["region1-db1"].mysql.engine.last_committed_opid.index
        cluster.crash("region1-db1")
        self.divergence(cluster, primary)
        assert primary.storage.first_index() > victim_tip

        cluster.restart("region1-db1")
        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal_log, goal_engine))

        shipper = primary.node.snapshots.shipper
        installer = cluster.services["region1-db1"].node.snapshots.installer
        assert shipper.metrics["deltas_produced"] >= 1
        assert installer.metrics["delta_installs"] >= 1
        # The delta shipped at most a fifth of what the full image would
        # have (312 of 7,444 bytes at this seed), and installed the
        # leader's engine byte for byte.
        assert shipper.metrics["bytes_sent"] * 5 <= shipper.metrics["bytes_full_equivalent"]
        assert cluster.services["region1-db1"].mysql.checksum() == primary.mysql.checksum()
        assert cluster.databases_converged()
        assert cluster.logs_prefix_equal()

    def test_reimage_from_backup_ships_delta(self):
        cluster = MyRaftReplicaset(two_region_spec(), seed=22)
        primary = cluster.bootstrap()
        load(cluster, primary, 60)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal))

        backup = take_backup(cluster, "region1-db1")
        self.divergence(cluster, primary)
        assert primary.storage.first_index() > backup.last_opid.index

        cluster.reimage_member("region1-db1", base_backup=backup)
        goal_log = primary.node.last_opid.index
        goal_engine = primary.mysql.engine.last_committed_opid.index
        run_until(cluster, member_caught_up(cluster, "region1-db1", goal_log, goal_engine))

        shipper = primary.node.snapshots.shipper
        installer = cluster.services["region1-db1"].node.snapshots.installer
        assert shipper.metrics["deltas_produced"] >= 1
        assert installer.metrics["delta_installs"] >= 1
        assert cluster.databases_converged()

    def test_resume_across_leader_change_dedupes_held_chunks(self):
        # The victim stages part of the transfer from the first leader;
        # after a leader change, its held-digest advertisement lets the
        # NEW leader skip the chunks already staged — only the rest ship.
        spec = ReplicaSetSpec(
            "delta-lead", (RegionSpec("region0", databases=3, logtailers=0),)
        )
        cluster = MyRaftReplicaset(spec, seed=23)
        primary = cluster.bootstrap()
        load(cluster, primary, 40, rotate_every=8)
        goal = primary.node.last_opid.index
        run_until(cluster, member_caught_up(cluster, "region0-db2", goal))
        run_until(cluster, member_caught_up(cluster, "region0-db3", goal))

        assert primary.snapshot_and_compact()
        db2 = cluster.server("region0-db2")
        db2.purge_to_horizon()
        assert db2.storage.first_index() > 1

        from repro.snapshot.installer import STAGING_NAMESPACE

        cluster.reimage_member("region0-db3")
        staging = cluster.hosts["region0-db3"].disk.namespace(STAGING_NAMESPACE)
        run_until(cluster, lambda: len(staging.get("pool", {})) >= 2, step=0.02)

        cluster.crash("region0-db1")
        new_primary = cluster.wait_for_primary(exclude="region0-db1")
        assert new_primary.host.name == "region0-db2"

        goal_log = new_primary.node.last_opid.index
        goal_engine = new_primary.mysql.engine.last_committed_opid.index
        run_until(
            cluster,
            member_caught_up(cluster, "region0-db3", goal_log, goal_engine),
            timeout=60.0,
        )
        shipper = new_primary.node.snapshots.shipper
        assert shipper.metrics["ships_completed"] >= 1
        # The new leader never re-sent what the old leader already
        # delivered: content-addressed staging made those chunks free.
        assert shipper.metrics["chunks_deduped"] >= 1
        assert cluster.services["region0-db3"].node.metrics["snapshot_installs"] >= 1
        assert cluster.databases_converged()
