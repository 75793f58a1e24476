"""§4.2.2: the region tree's cross-region bandwidth saving (repro.experiments.proxy_bandwidth).

The same write stream over the paper topology twice: through the region
tree every ring routes by default, and through a ring built with a
router that names no proxy (direct delivery). Gates, all on simulated
counters that repeat exactly:

* cross-region bytes fall by >= 55 % (five payload copies per entry
  instead of seventeen, and five acks per round instead of seventeen —
  each head folds its riders' acks into its own at 16 B per rider).
  This stream commits one ~577 B entry per round and pays the idle
  heartbeats in both variants: 63.0 % at the smoke size, 64.9 % at 50
  writes; where rounds carry ~27 entries the same mechanism saves 70 %
  (``benchmarks/e2e``, ``sysbench_write``);
* ``proxy_degrades == 0`` in steady state — nobody is ever at a cursor
  its proxy cannot serve;
* the per-entry PROXY_OP cost sits in the paper's 2-5 % band (it prices
  the PROXY_OPs that do go out: members at another cursor);
* every database's engine checksum is identical with and without the
  tree.

Two entry points:

* ``python benchmarks/bench_proxy_bandwidth.py [--smoke] [--out FILE]``
  runs the A/B, prints the report, writes ``BENCH_proxy_bandwidth.json``
  and exits non-zero if a gate fails (CI's perf-smoke step).
* ``pytest benchmarks/bench_proxy_bandwidth.py`` runs the same thing
  under pytest-benchmark.
"""

import argparse
import json
import sys

from repro.experiments.proxy_bandwidth import ProxyBandwidthResult, run_proxy_bandwidth

WRITES = 50
SMOKE_WRITES = 20
MIN_SAVINGS_PERCENT = 55.0


def check_gates(result: ProxyBandwidthResult) -> None:
    assert result.savings_percent >= MIN_SAVINGS_PERCENT, (
        f"cross-region bytes only fell {result.savings_percent:.1f}% "
        f"({result.vanilla_cross_region_bytes} -> {result.proxied_cross_region_bytes})"
    )
    assert result.proxy_degrades == 0, f"{result.proxy_degrades} degrades in steady state"
    assert 0.02 <= result.per_connection_overhead <= 0.05
    assert result.proxy_forwards > 0, "no entry flowed through a proxy"
    assert result.checksums_match, "engine checksums differ between the tree and direct delivery"


def test_proxy_bandwidth(benchmark, report_printer):
    result = benchmark.pedantic(
        lambda: run_proxy_bandwidth(writes=WRITES), rounds=1, iterations=1
    )
    report_printer(result.format_report())
    check_gates(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help=f"small stream ({SMOKE_WRITES} writes) for CI"
    )
    parser.add_argument("--writes", type=int, default=None)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default="BENCH_proxy_bandwidth.json")
    args = parser.parse_args(argv)

    writes = args.writes if args.writes is not None else (SMOKE_WRITES if args.smoke else WRITES)
    result = run_proxy_bandwidth(writes=writes, seed=args.seed)
    print(result.format_report())
    payload = result.to_json()
    payload["smoke"] = bool(args.smoke)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    check_gates(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
