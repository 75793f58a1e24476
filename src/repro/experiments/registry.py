"""Experiment registry: run any paper table/figure by id.

Each entry maps an experiment id to a callable returning a result object
with ``format_report()``. Benchmarks, examples, and the EXPERIMENTS.md
generator all go through this table.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.experiments.fig5_latency import run_fig5a, run_fig5c
from repro.experiments.fig5_throughput import run_fig5b, run_fig5d
from repro.experiments.flexi_ablation import run_flexi_ablation
from repro.experiments.mock_election_ablation import run_mock_election_ablation
from repro.experiments.proxy_bandwidth import run_proxy_bandwidth
from repro.experiments.quorum_fixer_drill import run_quorum_fixer_drill
from repro.experiments.rollout_drill import run_rollout_drill
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
}


def run_experiment(experiment_id: str, **kwargs: Any) -> Any:
    """Run one experiment by id; returns its result object."""
    return resolve_experiment(experiment_id, kwargs)(**kwargs)


def resolve_experiment(experiment_id: str, kwargs: dict) -> Callable[..., Any]:
    """The runner for ``experiment_id``, once ``kwargs`` are known to fit
    it. An unknown id, or a keyword the runner does not take, is a
    KeyError that names what is accepted."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    accepted = inspect.signature(runner).parameters
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise KeyError(
            f"{experiment_id} takes no parameter {', '.join(map(repr, unknown))}; "
            f"it accepts: {', '.join(accepted)}"
        )
    return runner
