"""Shared benchmark fixtures: the paper's full-size workloads.

Compiling GeM/ResNet-101 at 480x640 produces ~400k instructions and takes a
few seconds, so every compiled network is session-scoped.  Each experiment
writes its formatted table to ``benchmarks/results/<name>.txt`` (the rows the
paper's figures/tables report) in addition to asserting the headline claims.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.hw.config import AcceleratorConfig
from repro.nn import TensorShape
from repro.runtime.system import compile_tasks
from repro.zoo import build_gem, build_superpoint, build_superpoint_qqvga

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a formatted experiment table and echo it to the terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def big_config() -> AcceleratorConfig:
    return AcceleratorConfig.big()


@pytest.fixture(scope="session")
def paper_workloads(big_config):
    """(PR, FE-vga, FE-dslam): GeM/ResNet-101 @480x640, SuperPoint @480x640,
    SuperPoint @120x160 (:func:`~repro.zoo.build_superpoint_qqvga`),
    compiled into disjoint DDR windows."""
    gem, superpoint_vga, superpoint_small = compile_tasks(
        [
            build_gem(TensorShape(480, 640, 3)),
            build_superpoint(TensorShape(480, 640, 1), head="detector"),
            build_superpoint_qqvga(),
        ],
        big_config,
        weights="zeros",
    )
    return gem, superpoint_vga, superpoint_small
