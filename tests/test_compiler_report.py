"""Compile-time statistics (repro.compiler.report)."""

import pytest

from repro.accel.runner import run_program
from repro.compiler import compile_network
from repro.compiler.report import program_stats
from repro.isa import Opcode
from repro.nn import TensorShape
from repro.zoo import build_gem


@pytest.fixture(scope="module")
def stat_networks(tiny_cnn_compiled, tiny_residual_compiled, big_config):
    """Conv and pool, a residual add, and a global-pooling head."""
    gem = compile_network(
        build_gem(TensorShape(60, 80, 3), backbone="resnet18"),
        big_config,
        weights="zeros",
        cache=False,
    )
    return tiny_cnn_compiled, tiny_residual_compiled, gem


class TestProgramStats:
    def test_counts_match_histogram(self, stat_networks):
        for compiled in stat_networks:
            for mode in ("none", "vi", "layer"):
                stats = program_stats(compiled, mode)
                histogram = compiled.program_for(mode).opcode_histogram()
                assert stats.loads == histogram.get(Opcode.LOAD_D, 0) + histogram.get(
                    Opcode.LOAD_W, 0
                )
                assert stats.calcs == histogram.get(Opcode.CALC_I, 0) + histogram.get(
                    Opcode.CALC_F, 0
                )
                assert stats.saves == histogram.get(Opcode.SAVE, 0)
                assert stats.instructions == sum(histogram.values())
                assert (stats.virtual == 0) == (mode == "none")

    def test_estimated_cycles_match_simulation(self, stat_networks):
        for compiled in stat_networks:
            for mode in ("none", "vi", "layer"):
                stats = program_stats(compiled, mode)
                simulated = run_program(compiled, mode, functional=False)
                assert stats.estimated_cycles == simulated.total_cycles, mode

    def test_vi_mode_counts_virtual(self, tiny_cnn_compiled):
        stats = program_stats(tiny_cnn_compiled, "vi")
        assert stats.virtual == tiny_cnn_compiled.program.num_virtual()

