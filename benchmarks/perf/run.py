"""Script form of ``python -m benchmarks.perf`` (the command in
``BENCHMARK.json``): puts the repository root on the path first."""

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[2])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
