"""Reproduction of "MyRaft: High Availability in MySQL using Raft"
(Rahut et al., Meta Platforms, EDBT 2024).

Public entry points:

- :class:`repro.cluster.MyRaftReplicaset` — a simulated MyRaft replicaset
  (MySQL + mysql_raft_repl plugin + Raft, logtailers, FlexiRaft quorums);
- :class:`repro.semisync.SemiSyncReplicaset` — the prior-setup baseline
  (semi-sync replication + external failover automation);
- :mod:`repro.control` — enable-raft, Quorum Fixer, backup, CDC;
- :mod:`repro.check` — the model checker, on either stack, which also
  plays §5.1's shadow testing and runs §6's Figure 5a–d and Table 2
  drills. Every paper verdict is a tier-1 test.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
