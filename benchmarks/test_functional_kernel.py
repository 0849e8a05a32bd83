"""Functional-kernel floor: the patch-view GEMM kernel must beat the tap loops
it replaced by >= 2.5x on one functional ResNet-18 job, bit for bit.

``ObsConfig(functional=True)`` is the only mode that checks INCA's exactness
contract with real arithmetic, and it was the slowest thing in the repo: nine
``np.tensordot`` calls on int64 operands per 3x3 CALC, none of which numpy can
hand to BLAS.  :mod:`repro.quant.kernels` replaces them with a float32 GEMM
over a sliding-window view, exact in depth chunks of at most 1024 terms.
The old loops live on as the test-side oracle (``tests/tap_loop_oracle.py``);
here they are patched back in under the same core, program and input, so
the ratio isolates the kernel and nothing else.

Correctness over every geometry is ``tests/test_quant_kernels.py``; the
end-to-end ledger rows are ``python -m benchmarks.perf --workload
functional_preempt``.  This file pins the floor ROADMAP item 2 asks for and
records the table under ``benchmarks/results/``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.accel.reference import golden_output
from repro.accel.runner import run_program
from repro.nn import TensorShape
from repro.quant import kernels
from repro.runtime.system import compile_tasks
from repro.zoo import build_resnet
from tests import tap_loop_oracle as oracle

from .conftest import write_result

SPEEDUP_FLOOR = 2.5
REPEATS = 3


def best_of(compiled, image) -> tuple[float, np.ndarray, int]:
    """Fastest of ``REPEATS`` functional runs (the host's speed drifts)."""
    best = float("inf")
    for _ in range(REPEATS):
        compiled.layout.ddr.region(compiled.output_region).array[...] = 0
        start = time.perf_counter()
        result = run_program(compiled, functional=True, input_map=image)
        best = min(best, time.perf_counter() - start)
    return best, compiled.get_output().copy(), result.total_cycles


def test_functional_kernel_speedup(big_config):
    (compiled,) = compile_tasks(
        [build_resnet("resnet18", TensorShape(64, 64, 3))], big_config, weights="random", seed=0
    )
    image = np.random.default_rng(0).integers(-8, 8, size=(64, 64, 3)).astype(np.int8)

    kernel_s, kernel_out, kernel_cycles = best_of(compiled, image)
    golden = golden_output(compiled, image)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("int8_conv", "int8_depthwise", "int8_pool"):
            patch.setattr(kernels, name, getattr(oracle, name))
        oracle_s, oracle_out, oracle_cycles = best_of(compiled, image)
        oracle_golden = golden_output(compiled, image)

    assert kernel_out.any(), "the job computed nothing"
    assert np.array_equal(kernel_out, oracle_out)
    assert np.array_equal(kernel_out, golden)
    assert np.array_equal(golden, oracle_golden)
    assert kernel_cycles == oracle_cycles

    speedup = oracle_s / kernel_s
    macs = compiled.graph.total_macs()
    lines = [
        "Functional kernel: depth-chunked float32 GEMM per CALC vs the int64 tap loops",
        "workload: one ResNet-18@64x64 job, ObsConfig(functional=True), random weights",
        f"simulated cycles (both)    : {kernel_cycles:>12,}",
        f"tap-loop oracle wall time  : {oracle_s * 1e3:>12.1f} ms   "
        f"({macs / oracle_s / 1e9:.2f} G MAC/s)",
        f"patch-view kernel wall time: {kernel_s * 1e3:>12.1f} ms   "
        f"({macs / kernel_s / 1e9:.2f} G MAC/s, {speedup:.1f}x)",
        "outputs                    : identical, and equal to golden_output",
        f"acceptance floor           : {SPEEDUP_FLOOR:.1f}x",
    ]
    write_result("functional_kernel", "\n".join(lines))
    assert speedup >= SPEEDUP_FLOOR, f"functional kernel only {speedup:.2f}x over the tap loops"
