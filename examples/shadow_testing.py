#!/usr/bin/env python
"""MyShadow-style shadow testing (§5.1), as model-checker runs.

MyShadow replays production-representative traffic while it crashes
members and moves leadership, then checks that nothing diverged. Here
that is one ``repro.check`` run per mode on the paper-shaped topology:

- failure injection: the ``crashes`` scenario, random crash/restart
  churn that favours the primary;
- functional: the ``promotion-churn`` scenario, graceful promotions of
  random databases while members crash and restart.

Every run carries the checker's safety monitors (election safety, log
matching, state-machine safety and the rest) and ends with a
linearizability check of the clients' history. ``outcome.ok`` is all
of them passing.

Run:  python examples/shadow_testing.py
"""

from collections import Counter

from repro.check import SCENARIOS, run_once


def main() -> None:
    for name in ("crashes", "promotion-churn"):
        scenario = SCENARIOS[name]
        print(f"{name}: {scenario.description}")
        outcome = run_once(scenario, seed=1)
        faults = Counter(kind for _, kind, _, _ in outcome.fault_events)
        print(f"  committed transactions: {outcome.committed}")
        print(f"  faults injected:        {dict(sorted(faults.items()))}")
        if "transfers" in outcome.checks:
            completed = outcome.checks["transfers"] - outcome.checks["transfers_failed"]
            print(f"  transfers completed:    {completed} of {outcome.checks['transfers']}")
        print(f"  all checks passed:      {outcome.ok}")


if __name__ == "__main__":
    main()
