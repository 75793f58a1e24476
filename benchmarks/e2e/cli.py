"""Command line of the end-to-end benchmark.

The parent process measures nothing itself. For each workload it runs
``--repeats`` untraced children one after another, each a fresh
interpreter, then (with tracing on) one traced child, and then

- gates determinism: digest, every simulated-clock metric and every exact
  count must be identical in all of them, the traced one included;
- fails on any correctness violation a child reports;
- reports simulated metrics as they are and host metrics as the median
  (with quartiles and n) over the repeats, in standard seconds: each child
  scales its readings by the host speed it sampled (``child.HostSpeed``)
  and that factor is printed and saved beside them.

Two ways to call it:

- by hand, ``python -m benchmarks.e2e [--workload W] [--quick]`` runs the
  workloads at the issue's full sizes, prints every metric by name and
  unit, writes ``results/`` and appends a line per workload to
  ``HISTORY.jsonl``;
- the driver's ``--workload W --seed N --seconds S --trace 0|1`` sizes the
  workload to ``S`` and ends with one JSON line: the end-to-end metrics
  (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("sysbench_write", "prod_mixed", "failover_drill", "outage_catchup")
HOST_METRICS = ("txn_per_cpu_s", "cpu_s", "peak_rss_mb", "setup_s")
QUICK_SECONDS = 0.6
# What a determinism gate compares between two children of one workload.
GATED_FIELDS = ("digest", "sim", "samples", "attempted", "failed", "refused", "txns", "events")


def declared() -> dict:
    """BENCHMARK.json: the metric names, units and bounds this benchmark
    is held to."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the load generator and the cluster constructor only")
    parser.add_argument("--seconds", type=float,
                        help="size each timed region to about this many CPU-seconds "
                             "(default: the issue's full sizes)")
    parser.add_argument("--repeats", type=int, help="untraced fresh-process repeats (default 3)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
                        help="also make the traced run (default when run by hand)")
    parser.add_argument("--no-trace", dest="trace", action="store_const", const=0)
    parser.add_argument("--quick", action="store_true", help="smoke mode: tiny sizes, one repeat")
    parser.add_argument("--out", type=Path, help="results directory (default benchmarks/e2e/results)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str], started: float) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args, started)
    driver = args.seconds is not None and not args.quick
    if driver and args.workload is None:
        print("--seconds needs --workload", file=sys.stderr)
        return 2
    trace = bool(args.trace) if args.trace is not None else not driver
    if args.repeats is not None:
        repeats = args.repeats
    else:
        repeats = 1 if args.quick or (driver and trace) else 3
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    spec = declared()
    ok = True
    for name in names:
        report = run_workload(name, args.seed, seconds, repeats, trace)
        ok &= report["correct"]
        print_report(report, spec)
        if not driver:
            save_report(report, args.out or HERE / "results", history=not args.quick)
        if driver:
            print(json.dumps(driver_line(report, spec, trace)))
    return 0 if ok else 1


# -- children -----------------------------------------------------------------------


def child_main(args: argparse.Namespace, started: float) -> int:
    from benchmarks.e2e.child import run_once
    from benchmarks.e2e.workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else WORKLOADS[args.workload].full_seconds
    result = run_once(args.workload, args.seed, seconds, bool(args.trace), started)
    print(json.dumps(result))
    return 0


def spawn_child(name: str, seed: int, seconds: float | None, trace: bool) -> dict:
    command = [sys.executable, str(HERE / "__main__.py"), "--child", "--workload", name,
               "--seed", str(seed), "--trace", str(int(trace))]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    # The repo's CI pins the hash seed; so do we, so set order can never
    # differ between the repeats the determinism gate compares.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- one workload ---------------------------------------------------------------------


def first_difference(a, b, path: str = "") -> str | None:
    """Path and values of the first field on which ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}{key}: present in only one run"
            found = first_difference(a[key], b[key], f"{path}{key}.")
            if found:
                return found
        return None
    return None if a == b else f"{path.rstrip('.')}: {a!r} != {b!r}"


def run_workload(name: str, seed: int, seconds: float | None, repeats: int, trace: bool) -> dict:
    runs = [spawn_child(name, seed, seconds, False) for _ in range(repeats)]
    traced = spawn_child(name, seed, seconds, True) if trace else None
    reference = runs[0]
    labelled = [(f"repeat {i}", run) for i, run in enumerate(runs, start=1)]
    if traced is not None:
        labelled.append(("traced run", traced))
    problems = [violation for _label, run in labelled for violation in run["violations"]]
    for label, other in labelled[1:]:
        mismatch = first_difference(
            {k: reference[k] for k in GATED_FIELDS}, {k: other[k] for k in GATED_FIELDS}
        ) or first_difference(
            reference["layers"], {k: other["layers"][k] for k in reference["layers"]}, "layers."
        )
        if mismatch:
            problems.append(f"determinism: {label} differs from repeat 1 at {mismatch}")
    host = {
        metric: stats.spread([run["host"][metric] for run in runs]) for metric in HOST_METRICS
    }
    layers = dict(reference["layers"])
    if traced is not None:
        layers.update(traced["layers"])
        layers["trace.overhead_frac"] = traced["host"]["cpu_s"] / host["cpu_s"].median - 1.0
    layers["sim.loop.events_per_cpu_s"] = reference["events"] / host["cpu_s"].median
    return {
        "workload": name,
        "seed": seed,
        "seconds": reference["seconds"],
        "repeats": repeats,
        "correct": not problems,
        "problems": problems,
        "attempted": reference["attempted"],
        "failed": reference["failed"],
        "digest": reference["digest"],
        "sim": reference["sim"],
        "samples": reference["samples"],
        "host": host,
        "host_speed": stats.median([run["host_speed"] for run in runs]),
        "layers": layers,
        "traced": traced,
    }


def driver_line(report: dict, spec: dict, trace: bool) -> dict:
    """The last line the driver reads: every per-layer metric of a traced
    call, every end-to-end metric of an untraced one."""
    if trace:
        section, values = "per_layer", report["layers"]
    else:
        section = "end_to_end"
        values = {**report["sim"], **{k: v.median for k, v in report["host"].items()}}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }


# -- output ---------------------------------------------------------------------------


def print_report(report: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"repeats={report['repeats']}  digest={report['digest'][:16]}")
    print(f"   attempted={report['attempted']}  failed={report['failed']}")
    for name, value in sorted(report["sim"].items()):
        sample = report["samples"].get(name)
        note = f"  (p{sample['level']:g}, n={sample['n']})" if sample else ""
        print(f"   S {name:<34} {value:>14.3f} {units.get(name, ''):<6}{note}")
    for name, spread in report["host"].items():
        print(f"   H {name:<34} {spread.median:>14.3f} {units.get(name, ''):<6}"
              f"  (q1 {spread.q1:.3f}, q3 {spread.q3:.3f}, n={spread.count})")
    print(f"     (host speed x{report['host_speed']:.3f}: a raw reading is the one above divided by it)")
    for name, value in sorted(report["layers"].items()):
        if name not in report["sim"]:
            print(f"   L {name:<40} {value:>14.3f} {units.get(name, '')}")
    for problem in report["problems"]:
        print(f"   FAILED: {problem}")


def current_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def save_report(report: dict, out: Path, history: bool) -> None:
    """Full results (and the trace) under ``out``; one HISTORY line."""
    out.mkdir(parents=True, exist_ok=True)
    traced = report["traced"]
    plain = {k: v for k, v in report.items() if k != "traced"}
    plain["host"] = {k: vars(v) for k, v in report["host"].items()}
    (out / f"{report['workload']}.json").write_text(json.dumps(plain, indent=1, sort_keys=True))
    if traced is not None:
        trace = {"span_totals": traced["span_totals"], "spans": traced["spans"]}
        (out / f"{report['workload']}.trace.json").write_text(json.dumps(trace))
    if history:
        line = {
            "commit": current_commit(),
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": report["workload"],
            "seed": report["seed"],
            "seconds": report["seconds"],
            "correct": report["correct"],
            "digest": report["digest"],
            "sim": report["sim"],
            "host": {k: v["median"] for k, v in plain["host"].items()},
            "host_speed": report["host_speed"],
            "layers": report["layers"],
        }
        with open(HERE / "HISTORY.jsonl", "a") as history_file:
            history_file.write(json.dumps(line, sort_keys=True) + "\n")
