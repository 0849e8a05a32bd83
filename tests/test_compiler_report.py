"""Compile-time statistics (repro.compiler.report)."""

import pytest

from repro.accel.runner import run_program
from repro.compiler import compile_network
from repro.compiler.report import per_layer_worst_wait, program_stats
from repro.hw.timing import blob_cycles
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


class TestPerLayerWorstWait:
    def test_covers_conv_layers(self, tiny_cnn_compiled):
        waits = per_layer_worst_wait(tiny_cnn_compiled)
        conv_names = {
            cfg.name for cfg in tiny_cnn_compiled.layer_configs if cfg.kind == "conv"
        }
        assert set(waits) == conv_names

    def test_matches_blob_formula(self, tiny_cnn_compiled):
        waits = per_layer_worst_wait(tiny_cnn_compiled)
        for layer in tiny_cnn_compiled.layer_configs:
            if layer.kind != "conv":
                continue
            expected = blob_cycles(
                tiny_cnn_compiled.config,
                layer.in_channels,
                layer.out_shape.width,
                layer.kernel,
            )
            assert waits[layer.name] == expected
