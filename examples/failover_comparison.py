#!/usr/bin/env python
"""Failover drill: MyRaft vs the prior semi-sync setup (Table 2's story).

One ``repro.check`` run of the ``table2-failover`` drill per stack, at
the same seed: the primary crashes, and an availability probe measures
the client-observed write downtime. MyRaft detects the failure inside
the server (3 missed 500 ms heartbeats) and fails over in seconds; the
prior setup waits for external automation and takes about a minute.
Every run also carries the checker's safety checks (``outcome.ok``).

Run:  python examples/failover_comparison.py
"""

from dataclasses import replace

from repro.check import SCENARIOS, run_once


def main() -> None:
    print("Dead-primary failover, client-observed downtime:\n")
    downtime = {}
    for stack, label in (("myraft", "MyRaft"), ("semisync", "Semi-sync")):
        outcome = run_once(replace(SCENARIOS["table2-failover"], stack=stack), seed=1)
        downtime[stack] = outcome.downtime
        print(f"  {label:9s} {outcome.downtime:6.2f}s  (all checks passed: {outcome.ok})")
    print(f"\nMyRaft is {downtime['semisync'] / downtime['myraft']:.0f}x faster (paper: 24x)")


if __name__ == "__main__":
    main()
