"""Shared experiment scaffolding and the paper's reference numbers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics import LatencyHistogram, summarize

# -- Reference values from the paper (§6) -------------------------------------

# Figure 5a: production workload commit latency (microseconds).
PAPER_FIG5A_AVG_US = {"myraft": 15758.4, "semisync": 15626.8}  # +0.8% for MyRaft
# Figure 5c: sysbench commit latency (microseconds).
PAPER_FIG5C_AVG_US = {"myraft": 826.368, "semisync": 811.178}  # +1.9% for MyRaft

# Table 2: promotion/failover downtime in milliseconds.
PAPER_TABLE2_MS = {
    ("semisync", "failover"): {"pct99": 180291, "pct95": 98012, "median": 55039, "avg": 59133},
    ("semisync", "promotion"): {"pct99": 1968, "pct95": 1676, "median": 897, "avg": 956},
    ("raft", "failover"): {"pct99": 6632, "pct95": 5030, "median": 1887, "avg": 2389},
    ("raft", "promotion"): {"pct99": 357, "pct95": 322, "median": 202, "avg": 218},
}


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text aligned table (what the bench harness prints)."""
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for row_index, row in enumerate(cells):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append(line.rstrip())
        if row_index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def us(value_seconds: float) -> float:
    return round(value_seconds * 1e6, 1)


@dataclass
class DowntimeSample:
    """One Monte-Carlo drill result."""

    seed: int
    downtime: float  # seconds


@dataclass
class DowntimeDistribution:
    """Aggregated drills for one (system, operation) pair — a Table 2 row."""

    system: str
    operation: str
    samples: list = field(default_factory=list)

    def add(self, sample: DowntimeSample) -> None:
        self.samples.append(sample)

    def histogram(self) -> LatencyHistogram:
        hist = LatencyHistogram(f"{self.system}/{self.operation}")
        hist.extend(s.downtime for s in self.samples)
        return hist

    def row_ms(self) -> dict[str, float]:
        summary = summarize(self.histogram()).scaled(1e3)
        return {
            "pct99": round(summary.p99, 0),
            "pct95": round(summary.p95, 0),
            "median": round(summary.median, 0),
            "avg": round(summary.avg, 0),
        }
