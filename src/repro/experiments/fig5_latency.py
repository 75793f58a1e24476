"""Figures 5a and 5c: commit-latency histograms, MyRaft vs prior setup.

Figure 5a uses the production-representative workload (clients ~10 ms
RTT from the primary); Figure 5c uses sysbench OLTP write (co-located
clients). The paper reports MyRaft within +0.8% / +1.9% of the prior
setup's mean latency; the reproduction target is that *shape* — MyRaft
slightly slower, single-digit percent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.ab_comparison import ABResult
from repro.experiments.common import format_table, us
from repro.metrics import log_spaced_bins


@dataclass
class LatencyFigureResult:
    figure: str
    ab: ABResult
    paper_avg_us: dict

    def histogram_series(self, bins: int = 30) -> dict:
        """The figure's plotted data: log-spaced bins + counts per system."""
        lo = min(self.ab.myraft.latency.min(), self.ab.semisync.latency.min())
        hi = max(self.ab.myraft.latency.max(), self.ab.semisync.latency.max())
        edges = log_spaced_bins(lo * 0.95, hi * 1.05, bins)
        return {
            "bin_edges_us": [us(e) for e in edges],
            "myraft_counts": self.ab.myraft.latency.histogram(edges),
            "semisync_counts": self.ab.semisync.latency.histogram(edges),
        }

    def format_report(self) -> str:
        rows = []
        for system, result in (("MyRaft", self.ab.myraft), ("Prior setup", self.ab.semisync)):
            summary = result.latency_summary()
            rows.append([
                system,
                result.committed,
                us(summary.avg),
                us(summary.median),
                us(summary.p95),
                us(summary.p99),
            ])
        delta = self.ab.latency_delta_percent()
        paper_delta = (
            self.paper_avg_us["myraft"] / self.paper_avg_us["semisync"] - 1.0
        ) * 100.0
        lines = [
            f"{self.figure}: commit latency, {self.ab.workload} workload",
            format_table(
                ["system", "commits", "avg_us", "median_us", "p95_us", "p99_us"], rows
            ),
            f"MyRaft vs prior setup: {delta:+.2f}% (paper: {paper_delta:+.2f}%; "
            f"paper avgs {self.paper_avg_us['myraft']:.1f} vs "
            f"{self.paper_avg_us['semisync']:.1f} us)",
        ]
        return "\n".join(lines)

