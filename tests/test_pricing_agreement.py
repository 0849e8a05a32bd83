"""Every straight-line price of a program is the same number.

The scheduler plans with ``estimate_*_cycles``, the fast path retires from
``ProgramMeta``, the compile report and the latency profiles quote totals,
the verifier bounds WCIRL — and the simulator spends cycles.  All of them
price instruction kinds through :func:`repro.hw.timing.kind_cycles` (the
verifier keeps its own walk, as the independent reference), so over the
whole zoo, every variant and a config with non-default overheads they agree
to the cycle.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

from repro import AcceleratorConfig, compile_network
from repro.accel.runner import run_program
from repro.analysis.latency import instruction_cycles
from repro.compiler import VI_MODES, CompiledNetwork
from repro.compiler.report import program_stats
from repro.estimate import estimate_job_cycles, estimate_service_cycles
from repro.nn import TensorShape
from repro.verify.wcirl import wcirl_bound
from repro import zoo

SMALL_RGB = TensorShape(64, 64, 3)

#: Every zoo family, at an input size that keeps the stepped run short.
ZOO = {
    "tiny_conv": zoo.build_tiny_conv,
    "tiny_cnn": zoo.build_tiny_cnn,
    "tiny_residual": zoo.build_tiny_residual,
    "medium_layer_net": zoo.build_medium_layer_net,
    "mobilenet_v1": lambda: zoo.build_mobilenet_v1(SMALL_RGB),
    "darknet19": lambda: zoo.build_darknet19(SMALL_RGB),
    "vgg16": lambda: zoo.build_vgg16(TensorShape(32, 32, 3)),
    "resnet18": lambda: zoo.build_resnet("resnet18", SMALL_RGB),
    "gem_resnet18": lambda: zoo.build_gem(SMALL_RGB, backbone="resnet18"),
    "superpoint": lambda: zoo.build_superpoint(TensorShape(64, 64, 1), head="detector"),
}

CONFIGS = {
    "big": AcceleratorConfig.big(),
    "odd_overheads": replace(
        AcceleratorConfig.big(),
        name="odd-overheads",
        calc_overhead_cycles=13,
        instruction_fetch_cycles=3,
    ),
}


@lru_cache(maxsize=None)
def compiled_for(network: str, config: str) -> CompiledNetwork:
    return compile_network(ZOO[network](), CONFIGS[config], weights="zeros", cache=False)


@pytest.mark.parametrize("vi_mode", VI_MODES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("network", sorted(ZOO))
def test_seven_prices_agree(network: str, config: str, vi_mode: str) -> None:
    compiled = compiled_for(network, config)
    program = compiled.program_for(vi_mode)
    layers = {layer.layer_id: layer for layer in compiled.layer_configs}
    simulated = run_program(compiled, vi_mode, functional=False).total_cycles
    before_meta = (
        estimate_job_cycles(compiled.config, compiled, program),
        estimate_service_cycles(compiled.config, compiled, vi_mode),
    )
    # Each case is the only one touching this (compile, variant) pair, so
    # the two estimates above were priced from kinds: no meta existed.
    assert compiled.cached_mode_meta(vi_mode) is None
    prices = {
        "estimate_job_cycles (kinds)": before_meta[0],
        "estimate_service_cycles (kinds)": before_meta[1],
        "ProgramMeta.total_cycles": compiled.meta(vi_mode).total_cycles,
        "estimate_job_cycles (meta)": estimate_job_cycles(compiled.config, compiled, program),
        "estimate_service_cycles (meta)": estimate_service_cycles(
            compiled.config, compiled, vi_mode
        ),
        "program_stats.estimated_cycles": program_stats(compiled, vi_mode).estimated_cycles,
        "latency.instruction_cycles": int(instruction_cycles(compiled, vi_mode).sum()),
        "wcirl_bound.total_cycles": wcirl_bound(program, compiled.config, layers).total_cycles,
    }
    assert prices == dict.fromkeys(prices, simulated)
