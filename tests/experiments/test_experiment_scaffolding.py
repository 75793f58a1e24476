"""Experiment scaffolding tests: registry, common helpers, small runs."""

import pytest

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main as experiments_cli
from repro.experiments.common import (
    PAPER_TABLE2_MS,
    DowntimeDistribution,
    DowntimeSample,
    format_table,
    ms,
    us,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        # Exactly the paper's tables, figures and §4/§5 ablations: a
        # feature-local harness belongs in tier-1 or the e2e ledger.
        expected = {
            "table1", "fig5a", "fig5b", "fig5c", "fig5d", "table2",
            "proxy-bw", "mock-election", "quorum-fixer", "flexi-latency",
            "enable-raft",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99z")

    def test_unknown_keyword_names_the_accepted_ones(self):
        with pytest.raises(KeyError, match="'trails'.*accepts: trials, base_seed"):
            run_experiment("table2", trails=4)

    def test_cli_rejects_an_unknown_keyword_with_exit_2(self, capsys):
        assert experiments_cli(["table2", "trails=4"]) == 2
        err = capsys.readouterr().err
        assert "trails" in err and "trials, base_seed" in err
        assert "Traceback" not in err

    def test_table1_via_registry(self):
        result = run_experiment("table1")
        assert result.leader == "region0-db1"
        report = result.format_report()
        assert "Witness" in report and "Semi-Sync Acker" in report


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert lines[0].startswith("a")
        assert "----" in lines[1]

    def test_unit_helpers(self):
        assert us(0.001) == 1000.0
        assert ms(1.5) == 1500.0

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


class TestSmallExperimentRuns:
    """Miniature parameterizations: fast smoke coverage of the harnesses
    (full-scale runs live in benchmarks/)."""

    def test_quorum_fixer_drill_small(self):
        result = run_experiment("quorum-fixer", seed=3, operator_delay=2.0)
        assert result.restored_at is not None
        assert result.writes_blocked_during_shatter
        assert "Quorum Fixer" in result.format_report()

    def test_rollout_drill_small(self):
        result = run_experiment("enable-raft", runs=1)
        assert result.failures == 0
        assert len(result.windows) == 1
        assert "enable-raft" in result.format_report()

    def test_flexi_ablation_small(self):
        result = run_experiment("flexi-latency", writes=6)
        report = result.format_report()
        assert "single_region_dynamic" in report
        single = result.histograms["flexiraft:single_region_dynamic"].mean()
        majority = result.histograms["majority"].mean()
        assert single < majority
