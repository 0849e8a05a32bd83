"""Roofline analysis of compiled networks."""


import pytest

from repro.analysis.latency import instruction_cycles
from repro.analysis.roofline import roofline_report
from repro.compiler import compile_network
from repro.hw.config import AcceleratorConfig
from repro.nn import GraphBuilder, TensorShape
from repro.runtime import MultiTaskSystem
from repro.zoo import build_gem


class TestRooflineReport:
    def test_covers_every_layer(self, tiny_cnn_compiled):
        report = roofline_report(tiny_cnn_compiled)
        assert len(report.layers) == len(tiny_cnn_compiled.layer_configs)

    def test_totals_match_instruction_cycles(self, tiny_cnn_compiled):
        """calc+dma totals equal the straight-line run minus fetches."""
        import numpy as np

        report = roofline_report(tiny_cnn_compiled)
        durations = instruction_cycles(tiny_cnn_compiled, "none")
        fetch = tiny_cnn_compiled.config.instruction_fetch_cycles
        execution_total = int(np.sum(durations)) - fetch * len(durations)
        assert report.total_calc_cycles() + report.total_dma_cycles() == execution_total

    @pytest.mark.parametrize("network", ["tiny_cnn", "tiny_residual", "gem_resnet18"])
    def test_totals_match_the_core_counters(self, network, request, big_config):
        """The roofline is the simulator's own accounting, layer by layer: a
        timing-only single-task run of the ``none`` program spends exactly
        its calc and dma totals (conv, add and global-pooling layers)."""
        if network == "gem_resnet18":
            graph = build_gem(TensorShape(64, 64, 3), backbone="resnet18")
            compiled = compile_network(graph, big_config, weights="zeros", cache=False)
        else:
            compiled = request.getfixturevalue(f"{network}_compiled")
        system = MultiTaskSystem(compiled.config)
        system.add_task(0, compiled, vi_mode="none")
        system.submit(0, at_cycle=0)
        system.run()
        stats = system.core.stats
        report = roofline_report(compiled)
        assert report.total_calc_cycles() == stats.calc_cycles
        assert report.total_dma_cycles() == stats.load_cycles + stats.save_cycles

    def test_memory_bound_fraction_in_range(self, tiny_cnn_compiled):
        report = roofline_report(tiny_cnn_compiled)
        assert 0.0 <= report.memory_bound_fraction() <= 1.0

    def test_format_mentions_bound(self, tiny_cnn_compiled):
        text = roofline_report(tiny_cnn_compiled).format()
        assert "memory" in text or "compute" in text

    def test_1x1_conv_is_memory_bound(self):
        """A 1x1 conv with many channels moves lots of weights per MAC."""
        config = AcceleratorConfig.big()
        builder = GraphBuilder("pw", input_shape=TensorShape(8, 8, 256))
        builder.conv("pw", out_channels=256, kernel=1)
        compiled = compile_network(builder.build(), config, weights="zeros")
        report = roofline_report(compiled)
        assert report.layers[0].bound == "memory"

    def test_3x3_deep_wide_conv_is_compute_bound(self):
        """A deep 3x3 layer whose stripes don't re-load weights (H = one
        stripe) has arithmetic intensity well above the DMA rate."""
        config = AcceleratorConfig.big()
        builder = GraphBuilder("deep", input_shape=TensorShape(8, 80, 512))
        builder.conv("conv", out_channels=512, kernel=3, padding=1)
        compiled = compile_network(builder.build(), config, weights="zeros")
        report = roofline_report(compiled)
        assert report.layers[0].bound == "compute"

    def test_weight_reload_makes_short_stripes_memory_bound(self):
        """The schedule reloads weights per stripe: the same layer with many
        stripes (tall feature map, few channels per MAC) flips memory-bound —
        the roofline exposes the loop-order trade-off."""
        config = AcceleratorConfig.big()
        builder = GraphBuilder("tall", input_shape=TensorShape(64, 16, 512))
        builder.conv("conv", out_channels=512, kernel=3, padding=1)
        compiled = compile_network(builder.build(), config, weights="zeros")
        report = roofline_report(compiled)
        assert report.layers[0].bound == "memory"

    def test_top_filter(self, tiny_cnn_compiled):
        text = roofline_report(tiny_cnn_compiled).format(top=1)
        # title + header + separator + exactly one data row
        assert len([line for line in text.splitlines() if line.strip()]) == 4
