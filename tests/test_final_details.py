"""Remaining detail coverage: table rendering, map transforms, prototxt caveat."""

import numpy as np
import pytest

from repro.dslam import World, WorldConfig
from repro.nn.prototxt import parse_prototxt, to_prototxt
from repro.tables import format_table
from repro.tools.mapviz import render_merged
from repro.zoo import build_gem
from repro.nn import TensorShape


class TestTableRendering:
    def test_float_precision_tiers(self):
        text = format_table(["v"], [[1234.5], [12.345], [0.00123]])
        assert "1234" in text or "1235" in text
        assert "12.35" in text or "12.34" in text
        assert "0.0012" in text

    def test_zero_renders_bare(self):
        text = format_table(["v"], [[0.0]])
        assert text.splitlines()[-1].strip() == "0"

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestRenderMergedTransform:
    def test_rotation_applied(self):
        """A trajectory along +x in a frame rotated 90° plots along +y."""
        world = World.generate(WorldConfig())
        origin = (20.0, 5.0, np.pi / 2)
        trajectory = [(float(i), 0.0, 0.0) for i in range(8)]
        text = render_merged(world, trajectory, [], origin)
        # Agent 1's glyph must appear on multiple *rows* (vertical line).
        rows_with_one = [
            row for row in text.splitlines() if "1" in row and row.startswith("|")
        ]
        assert len(rows_with_one) >= 3


class TestPrototxtGemCaveat:
    def test_gem_pooling_degrades_to_ave(self):
        """Caffe has no GeM layer: export renders AVE pooling. The round trip
        preserves shapes but not the GeM exponent — documented lossiness."""
        gem = build_gem(TensorShape(64, 64, 3), backbone="resnet18")
        recovered = parse_prototxt(to_prototxt(gem))
        assert recovered.output_shape == gem.output_shape
        pool = recovered.layer("gem_pool")
        assert pool.mode == "avg"  # the documented degradation


class TestLayerConfigQueries:
    def test_input_rows_for_global(self, tiny_cnn_compiled):
        from repro.compiler.layer_config import LayerConfig
        from repro.nn import TensorShape as TS

        cfg = LayerConfig(
            layer_id=0,
            name="g",
            kind="global",
            in_shape=TS(6, 8, 4),
            out_shape=TS(1, 1, 4),
            input_region="in",
            output_region="out",
            mode="avg",
        )
        assert cfg.input_rows_for(0, 1) == (0, 6)

    def test_input_rows_for_add_passthrough(self):
        from repro.compiler.layer_config import LayerConfig
        from repro.nn import TensorShape as TS

        cfg = LayerConfig(
            layer_id=0,
            name="a",
            kind="add",
            in_shape=TS(8, 8, 4),
            out_shape=TS(8, 8, 4),
            input_region="in",
            output_region="out",
            in2_shape=TS(8, 8, 4),
            input2_region="in2",
        )
        assert cfg.input_rows_for(2, 4) == (2, 4)

    def test_invalid_kind_rejected(self):
        from repro.compiler.layer_config import LayerConfig
        from repro.errors import CompileError
        from repro.nn import TensorShape as TS

        with pytest.raises(CompileError):
            LayerConfig(
                layer_id=0,
                name="x",
                kind="transformer",
                in_shape=TS(8, 8, 4),
                out_shape=TS(8, 8, 4),
                input_region="in",
                output_region="out",
            )

    def test_add_without_second_operand_rejected(self):
        from repro.compiler.layer_config import LayerConfig
        from repro.errors import CompileError
        from repro.nn import TensorShape as TS

        with pytest.raises(CompileError):
            LayerConfig(
                layer_id=0,
                name="a",
                kind="add",
                in_shape=TS(8, 8, 4),
                out_shape=TS(8, 8, 4),
                input_region="in",
                output_region="out",
            )
