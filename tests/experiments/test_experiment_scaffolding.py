"""Experiment scaffolding tests: the helpers the Figure 5 and Table 2
harnesses share."""

from repro.experiments.common import (
    PAPER_TABLE2_MS,
    DowntimeDistribution,
    DowntimeSample,
    format_table,
    us,
)


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert lines[0].startswith("a")
        assert "----" in lines[1]

    def test_unit_helpers(self):
        assert us(0.001) == 1000.0

    def test_downtime_distribution_rows(self):
        dist = DowntimeDistribution("raft", "failover")
        for i, downtime in enumerate((1.0, 2.0, 3.0, 10.0)):
            dist.add(DowntimeSample(seed=i, downtime=downtime))
        row = dist.row_ms()
        assert row["avg"] == 4000
        assert row["median"] == 2500
        assert row["pct99"] > row["median"]

    def test_paper_reference_rows_complete(self):
        for key in (("raft", "failover"), ("semisync", "promotion")):
            row = PAPER_TABLE2_MS[key]
            assert set(row) == {"pct99", "pct95", "median", "avg"}
