"""What the traced run wraps, and the per-layer numbers it derives.

``ENTRY_POINTS`` lists the layers' public entry points; ``install``
patches them (and the loop's callback dispatch) at class level and
``SpanRecorder.uninstall`` restores the originals. The three observers
below read *simulated* timestamps at those same boundaries to split a
commit into the paper's §3.4 stages, a ReadIndex wait into its quorum
round, and a failover into Table 2's phases. Observers only read state
after a wrapped call returns: they schedule nothing and draw no
randomness, so a traced run simulates exactly what an untraced run does.
"""

from __future__ import annotations

import importlib
from collections import deque
from typing import Any

from benchmarks.e2e.spans import SpanRecorder

# (module, owner, attribute, span name). ``owner`` None = module function.
ENTRY_POINTS = [
    ("repro.sim.network", "Network", "send", "sim.net/send"),
    ("repro.plugin.raft_plugin", "MyRaftServer", "handle_message", "plugin.handle/handle_message"),
    ("repro.plugin.logtailer", "LogtailerService", "handle_message", "plugin.handle/handle_message"),
    ("repro.plugin.raft_plugin", "_PluginHooks", "on_elected_leader", "plugin.handle/on_elected_leader"),
    ("repro.raft.node", "RaftNode", "handle_message", "raft.handle/handle_message"),
    ("repro.raft.node", "RaftNode", "propose", "raft.propose/propose"),
    ("repro.raft.node", "RaftNode", "propose_batch", "raft.propose/propose_batch"),
    ("repro.raft.node", "RaftNode", "request_read_index", "reads/request_read_index"),
    ("repro.raft.node", "RaftNode", "start_election", "raft.tick/start_election"),
    ("repro.raft.log_cache", "LogCache", "get", "raft.log_cache/get"),
    ("repro.raft.log_cache", "LogCache", "put", "raft.log_cache/put"),
    ("repro.raft.log_cache", "LogCache", "fill", "raft.log_cache/fill"),
    ("repro.plugin.binlog_storage", "BinlogRaftLogStorage", "append", "plugin.log_storage/append"),
    ("repro.plugin.binlog_storage", "BinlogRaftLogStorage", "entry", "plugin.log_storage/entry"),
    ("repro.plugin.binlog_storage", "BinlogRaftLogStorage", "opid_at", "plugin.log_storage/opid_at"),
    ("repro.plugin.binlog_storage", "BinlogRaftLogStorage", "truncate_from",
     "plugin.log_storage/truncate_from"),
    ("repro.mysql.events", "Transaction", "encode", "mysql.codec/encode"),
    ("repro.mysql.events", "Transaction", "decode", "mysql.codec/decode"),
    ("repro.mysql.events", "Transaction", "peek_opid", "mysql.codec/peek_opid"),
    # Transaction.encode memoizes; the module function is the real work.
    ("repro.mysql.events", None, "encode_events", "mysql.codec/encode_events"),
    ("repro.mysql.pipeline", "CommitPipeline", "submit", "mysql.pipeline/submit"),
    ("repro.mysql.engine", "StorageEngine", "begin", "mysql.engine/begin"),
    ("repro.mysql.engine", "StorageEngine", "write_row", "mysql.engine/write_row"),
    ("repro.mysql.engine", "StorageEngine", "prepare", "mysql.engine/prepare"),
    ("repro.mysql.engine", "StorageEngine", "commit", "mysql.engine/commit"),
    ("repro.mysql.server", "MySQLServer", "engine_commit_group", "mysql.server/engine_commit_group"),
    ("repro.mysql.server", "MySQLServer", "enable_client_writes", "mysql.server/enable_client_writes"),
    ("repro.reads.manager", "ReadManager", "acquire_read_index", "reads/acquire_read_index"),
    ("repro.reads.manager", "ReadManager", "keepalive", "reads/keepalive"),
    ("repro.reads.manager", "ReadManager", "on_ack", "reads/on_ack"),
    ("repro.reads.manager", "ReadManager", "fail_all", "reads/fail_all"),
    ("repro.flexiraft.policy", "FlexiRaftPolicy", "data_quorum_satisfied", "flexiraft/data_quorum"),
    ("repro.flexiraft.policy", "FlexiRaftPolicy", "election_quorum_satisfied",
     "flexiraft/election_quorum"),
    ("repro.snapshot.installer", "SnapshotInstaller", "handle_offer", "snapshot/handle_offer"),
    ("repro.snapshot.installer", "SnapshotInstaller", "handle_chunk", "snapshot/handle_chunk"),
    ("repro.snapshot.transfer", "LeaderSnapshotShipper", "ship_to", "snapshot/ship_to"),
    ("repro.snapshot.transfer", "LeaderSnapshotShipper", "handle_response",
     "snapshot/handle_response"),
]
# MySQLServer.client_write/client_read are coroutines: their steps are
# attributed by dispatch classification (code in repro/mysql/server.py).


def _message_type(args: tuple) -> str:
    return type(args[2]).__name__


def _first_entry_opid(args: tuple) -> str | None:
    return str(args[1][0].opid) if args[1] else None


def _engine_txn_id(args: tuple) -> str:
    txn = args[1]
    return str(txn.opid or txn.gtid or txn.xid)


def _pipeline_txn_gtid(args: tuple) -> str | None:
    event = args[1].payload.gtid_event
    return f"{event.source_uuid}:{event.txn_id}" if event is not None else None


# OpId / GTID / message type for retained spans, where the call knows one.
TAGS = {
    "raft.handle/handle_message": _message_type,
    "plugin.handle/handle_message": _message_type,
    "plugin.log_storage/append": _first_entry_opid,
    "mysql.engine/commit": _engine_txn_id,
    "mysql.pipeline/submit": _pipeline_txn_gtid,
}


def resolve(module: str, owner: str | None) -> Any:
    target = importlib.import_module(module)
    return target if owner is None else getattr(target, owner)


def install(recorder: SpanRecorder) -> None:
    """Patch every entry point and the loop's dispatch; build observers."""
    from repro.sim.loop import Timer

    for module, owner, attribute, name in ENTRY_POINTS:
        recorder.install(resolve(module, owner), attribute, name, TAGS.get(name))
    recorder.install_dispatch(Timer)


class CommitStages:
    """The §3.4 split of a primary commit, in simulated seconds:
    ``CommitPipeline.submit`` → ``RaftNode.propose_batch`` (flush stage
    done) → commit marker covers the OpId → ``engine_commit_group``."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.measure_from = 0.0
        self.flush: list[float] = []
        self.consensus: list[float] = []
        self.engine: list[float] = []
        # host → records [txn, t_submit, t_flush, t_consensus, index]
        self._submitted: dict[str, deque] = {}
        self._proposed: dict[str, deque] = {}
        self._by_txn: dict[int, list] = {}
        recorder.observers["mysql.pipeline/submit"] = self._on_submit
        recorder.observers["raft.propose/propose_batch"] = self._on_propose_batch
        recorder.observers["raft.handle/handle_message"] = self._on_handle_message
        recorder.observers["mysql.server/engine_commit_group"] = self._on_engine_commit

    def _on_submit(self, args: tuple, _result: Any) -> None:
        pipeline, txn = args
        if not pipeline.name.endswith("primary-pipeline") or txn.aborted:
            return
        record = [txn, pipeline.host.loop.now, None, None, 0]
        self._submitted.setdefault(pipeline.host.name, deque()).append(record)
        self._by_txn[id(txn)] = record

    def _on_propose_batch(self, args: tuple, result: Any) -> None:
        node = args[0]
        queue = self._submitted.get(node.name)
        if not queue:
            return
        now = node.host.loop.now
        proposed = self._proposed.setdefault(node.name, deque())
        for opid, _future in result:
            # The flush group is the oldest live submissions, in order.
            while queue and queue[0][0].aborted:
                queue.popleft()
            if not queue:
                break
            record = queue.popleft()
            record[2] = now
            record[4] = opid.index
            proposed.append(record)

    def _on_handle_message(self, args: tuple, _result: Any) -> None:
        node = args[0]
        proposed = self._proposed.get(node.name)
        if not proposed:
            return
        commit_index = node.commit_index
        now = node.host.loop.now
        while proposed and proposed[0][4] <= commit_index:
            proposed.popleft()[3] = now

    def _on_engine_commit(self, args: tuple, _result: Any) -> None:
        server, group = args
        now = server.host.loop.now
        for txn in group:
            record = self._by_txn.pop(id(txn), None)
            if record is None or record[0] is not txn or record[3] is None:
                continue
            if record[1] >= self.measure_from:
                self.flush.append(record[2] - record[1])
                self.consensus.append(record[3] - record[2])
                self.engine.append(now - record[3])


class ReadWaits:
    """Simulated time a ReadIndex request waits for its quorum round:
    ``acquire_read_index`` → the ``on_ack`` that confirms its round."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.measure_from = 0.0
        self.waits: list[float] = []
        # node → [rounds started, rounds confirmed, in-flight round, queued]
        self._nodes: dict[str, list] = {}
        recorder.observers["reads/acquire_read_index"] = self._on_acquire
        recorder.observers["reads/on_ack"] = self._on_ack

    def _state(self, node: Any) -> list:
        state = self._nodes.get(node.name)
        if state is None:
            # The observers exist before any node does, so counts start at 0.
            state = self._nodes[node.name] = [0, 0, [], []]
        return state

    def _on_acquire(self, args: tuple, _result: Any) -> None:
        node = args[0].node
        if not node.is_leader:
            return  # refused on the spot: no round, no wait
        state = self._state(node)
        now = node.host.loop.now
        if node.metrics["read_probe_rounds"] > state[0]:
            # This request opened a round of its own.
            state[0] = node.metrics["read_probe_rounds"]
            state[2] = [now]
        else:
            state[3].append(now)  # joins the next round

    def _on_ack(self, args: tuple, _result: Any) -> None:
        node = args[0].node
        state = self._state(node)
        if node.metrics["read_rounds_confirmed"] == state[1]:
            return
        state[1] = node.metrics["read_rounds_confirmed"]
        now = node.host.loop.now
        self.waits.extend(now - t for t in state[2] if t >= self.measure_from)
        # A confirmed round immediately starts the next one for the queue.
        state[0] = node.metrics["read_probe_rounds"]
        state[2], state[3] = state[3], []


class FailoverPhases:
    """Table 2's split of one dead-primary failover, in simulated seconds
    after the crash: first ``start_election``, the last
    ``on_elected_leader`` before the first ``enable_client_writes``, that
    ``enable_client_writes``. ``arm`` is called once per trial with the
    trial cluster's loop; unarmed, the observers record nothing."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.loop: Any = None
        recorder.observers["raft.tick/start_election"] = self._on_start_election
        recorder.observers["plugin.handle/on_elected_leader"] = self._on_elected
        recorder.observers["mysql.server/enable_client_writes"] = self._on_promoted

    def arm(self, loop: Any, crash_time: float) -> None:
        self.loop = loop
        self.crash_time = crash_time
        self.first_election: float | None = None
        self.last_elected: float | None = None
        self.elected: float | None = None
        self.promoted: float | None = None

    def _on_start_election(self, _args: tuple, _result: Any) -> None:
        if self.loop is not None and self.first_election is None:
            self.first_election = self.loop.now

    def _on_elected(self, _args: tuple, _result: Any) -> None:
        if self.loop is not None:
            self.last_elected = self.loop.now

    def _on_promoted(self, _args: tuple, _result: Any) -> None:
        if self.loop is not None and self.promoted is None and self.last_elected is not None:
            self.elected = self.last_elected
            self.promoted = self.loop.now

    def phases(self, first_ack: float) -> tuple[float, float, float, float] | None:
        """(detect, elect, promote, first write) or None if a boundary
        was not seen."""
        if self.first_election is None or self.promoted is None:
            return None
        return (
            self.first_election - self.crash_time,
            self.elected - self.first_election,
            self.promoted - self.elected,
            first_ack - self.promoted,
        )
