"""Entry point: ``python -m benchmarks.e2e`` or ``python3 benchmarks/e2e/__main__.py``.

Makes the repository root (for ``benchmarks.e2e``) and ``src/`` (for
``repro``) importable whichever way it was started, so no PYTHONPATH is
needed, and keeps this directory itself off ``sys.path``.
"""

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # before anything heavy is imported: set-up includes imports
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main() -> int:
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: {ROOT / 'src' / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(sys.argv[1:], STARTED)


if __name__ == "__main__":
    sys.exit(main())
