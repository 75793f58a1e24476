"""repro.check — deterministic model checking on top of the simulator.

The simulator makes every run a pure function of its seed; this package
turns that determinism into a checker in the TigerBeetle/Jepsen mold:

- :mod:`repro.check.invariants` — Raft safety monitors (ElectionSafety,
  LogMatching, LeaderCompleteness, StateMachineSafety, FlexiRaft quorum
  intersection, snapshot-install monotonicity) hooked into RaftNode;
- :mod:`repro.check.history` — client operation recording plus a
  Wing–Gong linearizability checker over the KV history;
- :mod:`repro.check.scenarios` — the topology × workload × fault matrix,
  on MyRaft or the semi-sync baseline, and the paper's §6 drills;
- :mod:`repro.check.explorer` — the seed sweep, repro bundles, and
  replay-from-bundle;
- :mod:`repro.check.shrink` — ddmin over fault schedules;
- :mod:`repro.check.mutations` — deliberate safety weakenings that prove
  the checker can fail.

Run it: ``PYTHONPATH=src python -m repro.check --seeds 200``.
"""

from repro.check.explorer import RunOutcome, explore, replay_bundle, run_once, write_bundle
from repro.check.history import HistoryRecorder, check_linearizable
from repro.check.invariants import InvariantSuite, Violation
from repro.check.mutations import MUTATIONS, apply_mutation
from repro.check.scenarios import SCENARIOS, Scenario
from repro.check.shrink import ddmin, shrink_schedule

__all__ = [
    "MUTATIONS",
    "SCENARIOS",
    "HistoryRecorder",
    "InvariantSuite",
    "RunOutcome",
    "Scenario",
    "Violation",
    "apply_mutation",
    "check_linearizable",
    "ddmin",
    "explore",
    "replay_bundle",
    "run_once",
    "shrink_schedule",
    "write_bundle",
]
