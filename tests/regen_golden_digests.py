"""Regenerate ``tests/data/golden_digests.json``: the :func:`digest` of
every distinct golden of the tier-1 conformance cells — the stepped,
freshly compiled, uninterrupted run of each cell's workload and seed.

The goldens are computed live by stepping the same drivers the cells run,
so a change to a driver's loop would move a golden and its cells together;
the digests pin them to a reference.  Run this on the commit whose
behaviour is the reference — *before* a change to a driver, not after —
from the repository root::

    PYTHONPATH=<reference checkout>/src python tests/regen_golden_digests.py

``tests.conformance.golden`` recomputes each golden and compares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # ``tests`` as a package, wherever ``repro`` comes from

import repro  # noqa: E402
from tests.conformance import GOLDEN_DIGESTS, TIER1, digest, golden_cell, stepped_run  # noqa: E402


def digests() -> dict[str, str]:
    keys = dict.fromkeys(golden_cell(cell) for cell in TIER1)
    return {str(key): digest(stepped_run(key).observed) for key in keys}


def main() -> None:
    checkout = Path(repro.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    pinned = digests()
    GOLDEN_DIGESTS.write_text(
        json.dumps({"commit": commit, "digests": pinned}, indent=1) + "\n"
    )
    print(f"{len(pinned)} golden digests of {checkout} @ {commit[:12]} -> {GOLDEN_DIGESTS}")


if __name__ == "__main__":
    main()
