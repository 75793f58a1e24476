"""Table 2: promotion and failover downtime, MyRaft vs the semi-sync setup.

The paper aggregates 30 days of production metrics. Here each row is a
``repro.check`` drill run at the same seeds on both stacks:
``table2-failover`` crashes the primary at a random phase of the failure
detectors, ``table2-promotion`` gracefully promotes a remote region's
database. A drill's downtime is what a client sees: the longest gap
between two writes of the run's availability probe from the fault on.

Tier-1 runs the first four seeds; the ``full`` cases (``pytest -m
full_size``) run all ten, the size EXPERIMENTS.md reports, under the
same assertions. ``-s`` prints the rows.
"""

from dataclasses import replace

import pytest

from repro.check import SCENARIOS, run_once
from repro.metrics import LatencyHistogram, summarize

# The paper's Table 2 (ms).
PAPER_MS = {
    ("semisync", "failover"): {"pct99": 180291, "pct95": 98012, "median": 55039, "avg": 59133},
    ("semisync", "promotion"): {"pct99": 1968, "pct95": 1676, "median": 897, "avg": 956},
    ("myraft", "failover"): {"pct99": 6632, "pct95": 5030, "median": 1887, "avg": 2389},
    ("myraft", "promotion"): {"pct99": 357, "pct95": 322, "median": 202, "avg": 218},
}
# The paper's headline speed-ups (§6).
PAPER_SPEEDUP = {"failover": 24, "promotion": 4}
SEEDS = [100 + 13 * i for i in range(10)]
SIZES = [
    pytest.param(SEEDS[:4], id="slice"),
    pytest.param(SEEDS, id="full", marks=pytest.mark.full_size),
]


def downtime_rows(operation: str, seeds: list[int]) -> dict[str, dict[str, float]]:
    """Each stack's Table 2 row (ms) over ``seeds``, printed beside the
    paper's."""
    rows = {}
    print(f"\nTable 2 {operation} downtime (ms), {len(seeds)} drills per stack")
    for stack in ("semisync", "myraft"):
        scenario = replace(SCENARIOS[f"table2-{operation}"], stack=stack)
        downtimes = LatencyHistogram(stack)
        for seed in seeds:
            outcome = run_once(scenario, seed)
            assert outcome.ok, (stack, seed, outcome.failure_kinds(), outcome.crashed)
            downtimes.record(outcome.downtime)
        rows[stack] = summarize(downtimes).scaled(1e3).as_row()
        paper = PAPER_MS[(stack, operation)]
        print(f"  {stack:9s} " + "  ".join(
            f"{column} {rows[stack][column]:8.0f} (paper {paper[column]})" for column in paper
        ))
    ratio = rows["semisync"]["avg"] / rows["myraft"]["avg"]
    print(f"  MyRaft is {ratio:.1f}x faster (paper {PAPER_SPEEDUP[operation]}x)")
    return rows


def assert_raft_beats_semisync_everywhere(rows) -> None:
    for column, raft in rows["myraft"].items():
        assert raft < rows["semisync"][column], column


@pytest.mark.parametrize("seeds", SIZES)
def test_table2_failover(seeds):
    rows = downtime_rows("failover", seeds)
    raft, semisync = rows["myraft"], rows["semisync"]
    assert 1_000 <= raft["avg"] <= 5_000, raft
    assert 30_000 <= semisync["avg"] <= 120_000, semisync
    assert semisync["avg"] / raft["avg"] >= 10.0
    assert_raft_beats_semisync_everywhere(rows)


@pytest.mark.parametrize("seeds", SIZES)
def test_table2_promotion(seeds):
    rows = downtime_rows("promotion", seeds)
    raft, semisync = rows["myraft"], rows["semisync"]
    assert 50 <= raft["avg"] <= 600, raft
    assert 400 <= semisync["avg"] <= 2_500, semisync
    assert semisync["avg"] / raft["avg"] >= 2.0
    assert_raft_beats_semisync_everywhere(rows)
