"""Figure 5a–d: commit latency and throughput, MyRaft vs the semi-sync setup.

§6.1's A/B: the same workload, topology and seed on both stacks, one
``repro.check`` run each of the ``ab-production`` (5a, 5b) and
``ab-sysbench`` (5c, 5d) scenarios. The panels read the outcome's
``load``. The paper reports MyRaft +0.8 % / +1.9 % slower and no
throughput difference; the reproduction targets that shape.

Tier-1 runs an eighth of each workload's measured time; the ``full``
cases (``pytest -m full_size``) run all of it, the size EXPERIMENTS.md
reports, under the same assertions. ``-s`` prints the rows.
"""

from dataclasses import replace
from functools import cache

import pytest

from repro.check import SCENARIOS, run_once

# The paper's Figure 5a and 5c average commit latencies (µs).
PAPER_AVG_US = {
    "ab-production": {"myraft": 15758.4, "semisync": 15626.8},
    "ab-sysbench": {"myraft": 826.368, "semisync": 811.178},
}
SCALES = [
    pytest.param(0.125, id="slice"),
    pytest.param(1.0, id="full", marks=pytest.mark.full_size),
]


@cache
def ab(name: str, scale: float) -> dict[str, dict]:
    """Each stack's ``load`` for one A/B run, printed with the paper's
    averages; two panels share each run."""
    base = SCENARIOS[name]
    loads = {}
    print(f"\n{name}: {base.duration * scale:g} s measured per stack")
    for stack in ("semisync", "myraft"):
        outcome = run_once(replace(base, stack=stack, duration=base.duration * scale), seed=1)
        assert outcome.ok, (stack, outcome.failure_kinds(), outcome.crashed)
        load = loads[stack] = {**outcome.load, "committed": outcome.committed}
        print(
            f"  {stack:9s} commits {outcome.committed:5d}  "
            f"avg {load['latency_avg'] * 1e6:8.1f} us (paper {PAPER_AVG_US[name][stack]})  "
            f"p50 {load['latency_p50'] * 1e6:8.1f}  p95 {load['latency_p95'] * 1e6:8.1f}  "
            f"p99 {load['latency_p99'] * 1e6:8.1f}  {load['commits_per_s']:7.1f} commits/s"
        )
    return loads


def delta_percent(loads: dict, key: str) -> float:
    """MyRaft relative to semi-sync (positive: MyRaft higher)."""
    return (loads["myraft"][key] / loads["semisync"][key] - 1.0) * 100.0


@pytest.mark.parametrize("name", sorted(PAPER_AVG_US))
def test_commit_rate_is_over_the_measured_seconds(name):
    # Measurement starts a warmup after setup, off a bucket edge, so the
    # commits fall in one more one-second bucket than the seconds measured.
    seconds = SCENARIOS[name].duration * 0.125
    for load in ab(name, 0.125).values():
        assert load["commits_per_s"] == pytest.approx(load["committed"] / seconds)


@pytest.mark.parametrize("scale", SCALES)
def test_fig5a_production_latency(scale):
    loads = ab("ab-production", scale)
    delta = delta_percent(loads, "latency_avg")
    print(f"Figure 5a latency: MyRaft {delta:+.2f}% (paper +0.84%)")
    assert -1.0 < delta < 5.0
    # The tens of milliseconds the ~10 ms client RTT dictates.
    assert 0.011 < loads["myraft"]["latency_avg"] < 0.030


@pytest.mark.parametrize("scale", SCALES)
def test_fig5b_production_throughput(scale):
    loads = ab("ab-production", scale)
    delta = delta_percent(loads, "commits_per_s")
    print(f"Figure 5b throughput: MyRaft {delta:+.2f}% (paper: no significant difference)")
    assert abs(delta) < 5.0
    assert loads["myraft"]["stalled_buckets"] == 0


@pytest.mark.parametrize("scale", SCALES)
def test_fig5c_sysbench_latency(scale):
    loads = ab("ab-sysbench", scale)
    delta = delta_percent(loads, "latency_avg")
    print(f"Figure 5c latency: MyRaft {delta:+.2f}% (paper +1.87%)")
    assert -1.0 < delta < 8.0
    assert loads["myraft"]["latency_avg"] < 0.002
    assert loads["semisync"]["latency_avg"] < 0.002


@pytest.mark.parametrize("scale", SCALES)
def test_fig5d_sysbench_throughput(scale):
    loads = ab("ab-sysbench", scale)
    delta = delta_percent(loads, "commits_per_s")
    print(f"Figure 5d throughput: MyRaft {delta:+.2f}% (paper: no significant difference)")
    assert abs(delta) < 6.0
