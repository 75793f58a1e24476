"""Figures 5b and 5d: committed transactions per unit time.

The paper shows "no significant difference" in throughput between MyRaft
and the prior setup for both workloads; the reproduction target is a
throughput delta within a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.ab_comparison import ABResult
from repro.experiments.common import format_table


@dataclass
class ThroughputFigureResult:
    figure: str
    ab: ABResult

    def series(self) -> dict:
        """The figure's plotted data: commits per time bucket."""
        return {
            "myraft": self.ab.myraft.throughput.buckets(),
            "semisync": self.ab.semisync.throughput.buckets(),
        }

    def format_report(self) -> str:
        rows = [
            [
                "MyRaft",
                self.ab.myraft.committed,
                round(self.ab.myraft.throughput.mean_rate(), 1),
            ],
            [
                "Prior setup",
                self.ab.semisync.committed,
                round(self.ab.semisync.throughput.mean_rate(), 1),
            ],
        ]
        delta = self.ab.throughput_delta_percent()
        lines = [
            f"{self.figure}: throughput, {self.ab.workload} workload",
            format_table(["system", "commits", "commits_per_s"], rows),
            f"MyRaft vs prior setup: {delta:+.2f}% "
            "(paper: no significant difference)",
        ]
        return "\n".join(lines)

