"""End-to-end smoke of the command line at --quick sizes: the declared
metric names, traced/untraced agreement, and the failure exit paths."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import cli

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(*args, cwd=ROOT, script=HERE / "__main__.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170, check=False)


def test_benchmark_json_obeys_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert len(SPEC["per_layer"]) <= 128 and 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", cli.WORKLOAD_NAMES)
def test_workload_emits_exactly_the_declared_metrics(workload):
    """Both driver calls at smoke size. The --trace 1 call also gates the
    traced run's digest and counts against the untraced one."""
    lines = {}
    for trace in ("0", "1"):
        done = run_cli("--workload", workload, "--seed", "3", "--seconds", "0.6",
                       "--trace", trace, "--repeats", "1")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        lines[trace] = json.loads(done.stdout.splitlines()[-1])
        assert set(lines[trace]) == {"correct", "attempted", "failed", "metrics"}
        assert lines[trace]["correct"] is True and lines[trace]["failed"] == 0
        assert lines[trace]["attempted"] >= 1
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        metrics = lines[trace]["metrics"]
        assert set(metrics) == set(declared)
        assert all(metrics[name]["unit"] == unit for name, unit in declared.items())
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert all(m["value"] > 0 for m in lines["0"]["metrics"].values())
    # The ledger is live: something was attributed, and reads/snapshots
    # ran exactly where they are declared to.
    layers = {name: m["value"] for name, m in lines["1"]["metrics"].items()}
    assert layers["sim.self_us_per_txn"] > 0 and layers["raft.handle.self_us_per_txn"] > 0
    assert (layers["reads.self_us_per_read"] > 0) == (workload == "prod_mixed")
    assert (layers["snapshot.bytes_sent"] > 0) == (workload == "outage_catchup")
    assert (layers["failover_downtime_p50_ms"] > 0) == (workload == "failover_drill")


def test_determinism_gate_names_the_first_differing_field():
    a = {"digest": "x", "sim": {"p50": 1.0, "p99": 2.0}, "txns": 5}
    assert cli.first_difference(a, json.loads(json.dumps(a))) is None
    b = {"digest": "x", "sim": {"p50": 1.0, "p99": 2.5}, "txns": 6}
    assert cli.first_difference(a, b) == "sim.p99: 2.0 != 2.5"
    assert "present in only one run" in cli.first_difference(a, {"digest": "x", "txns": 5})


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_cli("--workload", "sysbench_write", "--seed", "1", "--seconds", "6", "--trace", "0",
                   cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "__main__.py")
    assert done.returncode != 0
    assert done.stdout == ""
