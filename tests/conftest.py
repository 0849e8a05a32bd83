"""Shared fixtures: hardware configs and pre-compiled tiny networks.

Compilation of even tiny networks costs a few milliseconds; the functional
networks (with generated weights) are session-scoped so the many bit-exactness
tests share them.  Tests that mutate DDR input regions must use their own
input data (set_input overwrites the region, which is fine — each test sets
what it needs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorCore
from repro.compiler.compile import CompiledNetwork, compile_network
from repro.errors import ExecutionError
from repro.hw.config import AcceleratorConfig
from repro.obs import ObsConfig
from repro.runtime.system import compile_tasks
from repro.zoo import build_tiny_cnn, build_tiny_conv, build_tiny_residual


@pytest.fixture(scope="session")
def big_config() -> AcceleratorConfig:
    return AcceleratorConfig.big()


@pytest.fixture(scope="session")
def small_config() -> AcceleratorConfig:
    return AcceleratorConfig.small()


@pytest.fixture(scope="session")
def example_config() -> AcceleratorConfig:
    return AcceleratorConfig.worked_example()


@pytest.fixture(scope="session")
def tiny_conv_compiled(example_config) -> CompiledNetwork:
    return compile_network(build_tiny_conv(), example_config, weights="random", seed=1)


@pytest.fixture(scope="session")
def tiny_cnn_compiled(example_config) -> CompiledNetwork:
    return compile_network(build_tiny_cnn(), example_config, weights="random", seed=2)


@pytest.fixture(scope="session")
def tiny_residual_compiled(example_config) -> CompiledNetwork:
    return compile_network(build_tiny_residual(), example_config, weights="random", seed=3)


@pytest.fixture(scope="session")
def tiny_pair(example_config) -> tuple[CompiledNetwork, CompiledNetwork]:
    """(low-priority, high-priority) networks in disjoint DDR windows."""
    low, high = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual()],
        example_config,
        weights="random",
        seed=4,
    )
    return low, high


def random_input(compiled: CompiledNetwork, seed: int = 0) -> np.ndarray:
    """A reproducible int8 input feature map for a compiled network."""
    shape = compiled.graph.input_shape
    rng = np.random.default_rng(seed)
    return rng.integers(
        -128, 128, size=(shape.height, shape.width, shape.channels), dtype=np.int64
    ).astype(np.int8)


@pytest.fixture()
def structural_oracle(monkeypatch):
    """Hold every ``structural_pass`` the verify engine runs equal to the
    per-instruction walk it replaced (``tests/program_walk_oracle.py``):
    same diagnostics, same order.  The verifier test modules opt in, so each
    mutation they generate is also a differential case."""
    from repro.verify import engine
    from repro.verify.diagnostics import Report
    from tests import program_walk_oracle

    columns = engine.structural_pass

    def checked(program, report, layers=None):
        before, walked = len(report), Report()
        columns(program, report, layers)
        program_walk_oracle.structural_pass(program, walked, layers)
        assert list(report)[before:] == list(walked)

    monkeypatch.setattr(engine, "structural_pass", checked)


def core_error_index(
    compiled: CompiledNetwork, program, *, functional: bool, config=None
) -> int | None:
    """Run ``program``'s real instructions front to back through a fresh
    core; the program index at which it raises ``ExecutionError`` (``None``:
    ran to completion).  Any other exception escapes — a core that dies of a
    numpy error instead of a buffer-rule violation is itself the bug."""
    core = AcceleratorCore(
        config or compiled.config,
        compiled.layout.ddr,
        obs=ObsConfig(functional=functional),
    )
    for index, instruction in enumerate(program):
        if instruction.is_virtual:
            continue
        try:
            core.execute(instruction, compiled.layer_config(instruction.layer_id))
        except ExecutionError:
            return index
    return None
