"""Run paper experiments from the command line.

Usage:
    python -m repro.experiments                 # list experiment ids
    python -m repro.experiments fig5c           # run one and print rows
    python -m repro.experiments table2 trials=4 # pass int/float kwargs
"""

from __future__ import annotations

import sys

from repro.experiments.registry import EXPERIMENTS, resolve_experiment


def _parse_kwargs(args: list[str]) -> dict:
    kwargs = {}
    for raw in args:
        key, sep, value = raw.partition("=")
        if not sep:
            raise SystemExit(f"bad argument {raw!r}: expected key=value")
        try:
            kwargs[key] = int(value)
        except ValueError:
            try:
                kwargs[key] = float(value)
            except ValueError:
                kwargs[key] = value
    return kwargs


def main(argv: list[str]) -> int:
    if not argv:
        print("available experiments (python -m repro.experiments <id> [k=v ...]):")
        for experiment_id, runner in sorted(EXPERIMENTS.items()):
            doc = (runner.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {experiment_id:<14} {summary}")
        return 0
    experiment_id, *rest = argv
    kwargs = _parse_kwargs(rest)
    try:
        runner = resolve_experiment(experiment_id, kwargs)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2
    print(runner(**kwargs).format_report())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
