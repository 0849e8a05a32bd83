"""Regenerate ``tests/data/program_digests.json``: the sha256 of
``Program.to_bytes()`` for every zoo network x variant x accelerator x
``calc_f_stride`` the compiler-words suite pins.

Run it on the commit whose bytes are the reference — *before* a change to
the compiler, not after — from the repository root::

    PYTHONPATH=src python tests/regen_program_digests.py

``tests/test_compiler_words.py`` recomputes the same cases and compares.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # ``tests`` as a package, wherever ``repro`` comes from

import repro  # noqa: E402
from repro.compiler import VI_MODES, ViPolicy, compile_network  # noqa: E402
from repro.hw.config import AcceleratorConfig  # noqa: E402
from tests.test_program_words import ZOO  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "program_digests.json"
CONFIGS = {"big": AcceleratorConfig.big, "small": AcceleratorConfig.small}
STRIDES = (1, 2, 3)
#: One case away from address 0, so ``ddr_addr`` columns carry an offset.
BASE_ADDR_CASE = ("tiny_residual@example", "small", 2, 0x0100_0000)


def cases() -> Iterator[tuple[str, str, int, int]]:
    """``(network, config, calc_f_stride, base_addr)`` of every pinned compile."""
    for name in sorted(ZOO):
        for config in CONFIGS:
            for stride in STRIDES:
                yield name, config, stride, 0
    yield BASE_ADDR_CASE


def digests(name: str, config: str, stride: int, base_addr: int) -> dict[str, str]:
    """Digest per variant of one case, keyed as the fixture keys them."""
    compiled = compile_network(
        ZOO[name][0](),
        CONFIGS[config](),
        base_addr=base_addr,
        weights="zeros",
        vi_policy=ViPolicy(calc_f_stride=stride),
        cache=False,
    )
    return {
        f"{name}|{config}|stride={stride}|base={base_addr:#x}|{mode}": hashlib.sha256(
            compiled.program_for(mode).to_bytes()
        ).hexdigest()
        for mode in VI_MODES
    }


def main() -> None:
    checkout = Path(repro.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    pinned: dict[str, str] = {}
    for case in cases():
        pinned.update(digests(*case))
    FIXTURE.write_text(json.dumps({"commit": commit, "digests": pinned}, indent=1) + "\n")
    print(f"{len(pinned)} digests of {checkout} @ {commit[:12]} -> {FIXTURE}")


if __name__ == "__main__":
    main()
