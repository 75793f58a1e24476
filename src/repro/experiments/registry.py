"""Experiment registry: run any paper table/figure by id.

Each entry maps an experiment id to a zero-argument callable returning a
result object with ``format_report()``. Benchmarks, examples, and the
EXPERIMENTS.md generator all go through this table.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.experiments.fig5_latency import run_fig5a, run_fig5c
from repro.experiments.fig5_throughput import run_fig5b, run_fig5d
from repro.experiments.flexi_ablation import run_flexi_ablation
from repro.experiments.harness_speed import run_harness_speed
from repro.experiments.mock_election_ablation import run_mock_election_ablation
from repro.experiments.parallel_apply import run_parallel_apply
from repro.experiments.proxy_bandwidth import run_proxy_bandwidth
from repro.experiments.quorum_fixer_drill import run_quorum_fixer_drill
from repro.experiments.read_path import run_read_path
from repro.experiments.rollout_drill import run_rollout_drill
from repro.experiments.sharding import run_sharding
from repro.experiments.snapshot_bootstrap import run_snapshot_bootstrap
from repro.experiments.table1_roles import run_table1
from repro.experiments.table2_downtime import run_table2

EXPERIMENTS: dict[str, Callable[..., Any]] = {
    "table1": run_table1,
    "fig5a": run_fig5a,
    "fig5b": run_fig5b,
    "fig5c": run_fig5c,
    "fig5d": run_fig5d,
    "table2": run_table2,
    "proxy-bw": run_proxy_bandwidth,
    "mock-election": run_mock_election_ablation,
    "quorum-fixer": run_quorum_fixer_drill,
    "flexi-latency": run_flexi_ablation,
    "enable-raft": run_rollout_drill,
    "snapshot-bootstrap": run_snapshot_bootstrap,
    "parallel-apply": run_parallel_apply,
    "read-path": run_read_path,
    "sharding": run_sharding,
    "harness-speed": run_harness_speed,
}


def run_experiment(experiment_id: str, **kwargs: Any) -> Any:
    """Run one experiment by id; returns its result object."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    return runner(**kwargs)
