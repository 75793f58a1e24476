"""Harnesses for the paper's Figure 5a–d and Table 2 (§6).

``run_ab_comparison`` runs the §6.1 A/B that Figures 5a–d read and
``run_table2`` the Table 2 drills; their result objects'
``format_report()`` prints the paper's rows. The ``bench_fig5*`` and
``bench_table2_downtime`` modules under ``benchmarks/`` drive them.
Every other paper verdict is a tier-1 test (EXPERIMENTS.md's Summary
names each producer).
"""
