"""The repo's one end-to-end benchmark.

Four workloads on the paper's topology, two clocks (simulated time and
host CPU time), and a per-layer self-time ledger from a separate traced
run. See README.md in this directory; run as

    PYTHONPATH=src python -m benchmarks.e2e            # every workload
    python3 benchmarks/e2e/__main__.py --workload W --seed N --seconds S --trace 0|1

The package changes nothing under ``src/`` and claims no gain: it only
measures, through the public API of ``repro``.
"""
