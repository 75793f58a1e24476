"""CLI for the model-checking harness.

Sweep (the default)::

    python -m repro.check --seeds 200
    python -m repro.check --seeds 200 --jobs 4    # 4 worker processes
    python -m repro.check --smoke                 # 25 seeds x every scenario
    python -m repro.check --scenario leader-crash-loop --seeds 50

``--jobs N`` fans seeds out to N worker processes (0 = one per CPU).
Each seed is an independent deterministic simulation and results merge
back in sweep order, so verdicts, digests, and repro bundles are
byte-identical for every N.

Bundles::

    python -m repro.check --replay bundles/crashes-seed17.json
    python -m repro.check --replay bundles/crashes-seed17.json --scripted
    python -m repro.check --shrink bundles/crashes-seed17.json

Self-validation (a weakened safety rule must be caught and shrunk)::

    python -m repro.check --mutate all
    python -m repro.check --mutate election-own-region-only

Exit codes: 0 clean (or self-test passed), 1 violations found (or
self-test failed), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.check.explorer import (
    explore,
    load_bundle,
    replay_bundle,
    run_once,
    write_bundle,
)
from repro.check.mutations import MUTATIONS
from repro.check.scenarios import SCENARIOS
from repro.check.shrink import shrink_schedule
from repro.workload.faults import FaultEvent

# Scenario order used when hunting for a mutation's symptom: the
# crash-loop exposes quorumless commits fastest, churn exposes vote bugs.
MUTATION_HUNT_ORDER = ["leader-crash-loop", "crashes", "pause-storm", "region-partitions"]
# Mutations whose symptom only exists under a specific scenario shape
# hunt there instead, starting that many seeds past --base-seed. An
# early-served read needs an engine behind consensus: sticky-reads'
# sticky clients catch one (seed 3).
MUTATION_HUNT_OVERRIDES = {
    "read-skips-apply-wait": (["sticky-reads"], 0),
}
# Mutations no sweep scenario has been seen to expose, with the range
# searched. Its symptom needs a leader cut off within one WAN delay of
# winning an election a rival also ran in — no fault source here aims
# there; the execution is built by hand in tests/check/test_explorer.py
# (TestGrantorHistoryIsLoadBearing). A hunt that comes back empty is
# reported, not failed; one that detects is shrunk like any other, and
# its seed then belongs in MUTATION_HUNT_OVERRIDES.
MUTATION_NO_WITNESS = {
    "grantor-history-ignored": (
        "seeds 1-400 of leader-crash-loop, region-partitions, write-path, and of "
        "sticky-reads as it ran before its reads became ReadIndex reads"
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seeds", type=int, default=50, help="seeds per scenario")
    parser.add_argument("--base-seed", type=int, default=1, help="first seed")
    parser.add_argument(
        "--scenario", action="append", default=None,
        help="scenario name (repeatable; default: all)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="PR-gate batch: 25 seeds across every scenario",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (0 = one per available "
        "CPU); results merge in deterministic seed order, so verdicts, "
        "digests, and bundles are identical for every N",
    )
    parser.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="self-validation: run with a weakened safety rule "
        "('all' runs every mutation)",
    )
    parser.add_argument(
        "--bundle-dir", type=Path, default=Path(".check-bundles"),
        help="where failing-run bundles are written",
    )
    parser.add_argument("--replay", type=Path, default=None, help="replay a bundle")
    parser.add_argument(
        "--scripted", action="store_true",
        help="with --replay: inject the bundle's recorded fault events as a "
        "scripted schedule instead of re-drawing them from the seed, so a "
        "bundle captured at one commit replays the same faults at another",
    )
    parser.add_argument(
        "--shrink", type=Path, default=None,
        help="ddmin a bundle's fault schedule to a minimal failing one",
    )
    parser.add_argument("--list", action="store_true", help="list scenarios/mutations")
    parser.add_argument("--quiet", action="store_true", help="only print the summary")
    return parser


def _log(quiet: bool):
    if quiet:
        return None
    return lambda message: print(message, flush=True)


def _cmd_list() -> int:
    print("scenarios:")
    for scenario in SCENARIOS.values():
        print(f"  {scenario.name:20s} {scenario.description}")
    print("mutations:")
    for mutation in MUTATIONS.values():
        print(f"  {mutation.name:26s} {mutation.description}")
    return 0


def _cmd_replay(path: Path, quiet: bool, scripted: bool = False) -> int:
    outcome = replay_bundle(path, scripted=scripted)
    original = load_bundle(path)
    how = "scripted " if scripted else ""
    print(f"{how}replayed {original['scenario']} seed={original['seed']}: "
          f"{'ok' if outcome.ok else ','.join(outcome.failure_kinds())}")
    if outcome.digest() == original.get("digest"):
        print("digest matches the bundle: byte-for-byte reproduction")
    elif scripted:
        # A scripted run injects the recorded events, not the injector's
        # own decisions, so it can diverge even at the capturing commit.
        print("digest differs from the bundle (expected of a scripted replay)")
    else:
        print("digest DIFFERS from the bundle (code changed since capture?)")
    if not outcome.ok and not quiet:
        for violation in outcome.violations:
            print(f"  {violation}")
        print(f"  {outcome.lin_detail}")
    return 0 if outcome.ok else 1


def _cmd_shrink(path: Path, quiet: bool) -> int:
    data = load_bundle(path)
    scenario = SCENARIOS[data["scenario"]]
    events = [FaultEvent.from_wire(w) for w in data["fault_events"]]
    result = shrink_schedule(
        scenario, int(data["seed"]), events,
        mutation=data.get("mutation"), log=_log(quiet),
    )
    print(f"shrink: {len(result.original)} -> {len(result.minimal)} fault events "
          f"in {result.probes} probes")
    for event in result.minimal:
        print(f"  {event.to_wire()}")
    return 0


def _run_sweep(args) -> int:
    names = args.scenario or sorted(SCENARIOS)
    seeds = list(range(args.base_seed, args.base_seed + (25 if args.smoke else args.seeds)))
    report = explore(
        names, seeds, bundle_dir=args.bundle_dir, log=_log(args.quiet),
        jobs=args.jobs,
    )
    print(f"sweep: {report.runs} runs, {len(report.failures)} failures")
    for bundle in report.bundles:
        print(f"  bundle: {bundle}")
    print(f"checks per scenario, summed over {len(seeds)} seeds:")
    for name, totals in report.checks.items():
        counts = " ".join(f"{check}={totals[check]}" for check in sorted(totals))
        print(f"  {name:20s} {counts}")
    return 0 if report.ok else 1


def _run_mutations(args) -> int:
    hunt_all = args.mutate == "all"
    names = sorted(MUTATIONS) if hunt_all else [args.mutate]
    log = _log(args.quiet)
    all_passed = True
    for name in names:
        if name not in MUTATIONS:
            print(f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}")
            return 2
        searched = MUTATION_NO_WITNESS.get(name)
        if hunt_all and searched is not None:
            print(f"mutation {name}: NOT FOUND in {searched} (recorded; "
                  f"hunt on with --mutate {name} --base-seed N)")
            continue
        passed = _validate_mutation(name, args, log)
        if not passed and searched is not None:
            print(f"mutation {name}: NOT FOUND in this hunt, nor in {searched}")
            continue
        print(f"mutation {name}: {'DETECTED and shrunk' if passed else 'NOT DETECTED'}")
        all_passed = all_passed and passed
    return 0 if all_passed else 1


def _validate_mutation(name: str, args, log) -> bool:
    """True when the weakened rule is caught by the monitors and its fault
    schedule shrinks to a minimal failing one."""
    scenario_names, skip = MUTATION_HUNT_OVERRIDES.get(name, (MUTATION_HUNT_ORDER, 0))
    first = args.base_seed + skip
    seeds = range(first, first + max(args.seeds, 10))
    for scenario_name in scenario_names:
        scenario = SCENARIOS[scenario_name]
        for seed in seeds:
            outcome = run_once(scenario, seed, mutation=name)
            if log is not None:
                status = "ok" if outcome.ok else ",".join(outcome.failure_kinds())
                log(f"  {name} {scenario_name} seed={seed}: {status}")
            if outcome.ok:
                continue
            bundle = write_bundle(outcome, args.bundle_dir)
            if log is not None:
                log(f"  detected -> {bundle}")
            events = [FaultEvent.from_wire(w) for w in outcome.fault_events]
            if not events:
                # Violation without any fault (e.g. at bootstrap): already
                # minimal, nothing to shrink.
                return True
            result = shrink_schedule(scenario, seed, events, mutation=name, log=log)
            if len(result.minimal) < len(result.original):
                if log is not None:
                    log(f"  shrunk {len(result.original)} -> {len(result.minimal)} "
                        f"events in {result.probes} probes")
                return True
            # Scripted replay diverged or already minimal; detection still
            # counts if the scripted replay reproduces the failure.
            if result.probes > 0 and result.minimal == result.original:
                replayed = run_once(
                    scenario, seed, schedule=events, mutation=name
                )
                if not replayed.ok:
                    return True
            # Otherwise hunt for a different failing run.
    return False


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        return _cmd_list()
    if args.replay is not None:
        return _cmd_replay(args.replay, args.quiet, args.scripted)
    if args.shrink is not None:
        return _cmd_shrink(args.shrink, args.quiet)
    if args.mutate is not None:
        return _run_mutations(args)
    return _run_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
