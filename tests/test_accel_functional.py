"""Unit tests for the tile-level functional helpers of the accelerator core."""

import numpy as np
import pytest

from repro.accel import functional as fn
from repro.compiler.layer_config import LayerConfig
from repro.errors import ExecutionError
from repro.nn.tensor import TensorShape
from repro.quant import qops


def conv_layer(h=8, w=8, cin=4, cout=8, kernel=3, stride=1, padding=1):
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    return LayerConfig(
        layer_id=0,
        name="conv",
        kind="conv",
        in_shape=TensorShape(h, w, cin),
        out_shape=TensorShape(out_h, out_w, cout),
        input_region="in",
        output_region="out",
        kernel=(kernel, kernel),
        stride=(stride, stride),
        padding=(padding, padding),
        relu=True,
        bias=True,
        shift=6,
        weight_region="w",
        bias_region="b",
    )


class TestGatherInputWindow:
    def test_interior_stripe_no_padding_rows(self):
        layer = conv_layer(h=16)
        tile = np.arange(16 * 8 * 4, dtype=np.int64).reshape(16, 8, 4).astype(np.int8)
        window = fn.gather_input_window(tile, 0, layer, out_row0=4, out_rows=4)
        assert window.shape == (6, 10, 4)  # 3 + 3 rows span, W + 2*pad
        assert np.array_equal(window[:, 1:9, :], tile[3:9])

    def test_top_edge_pads_first_row(self):
        layer = conv_layer()
        tile = np.ones((8, 8, 4), dtype=np.int8)
        window = fn.gather_input_window(tile, 0, layer, out_row0=0, out_rows=4)
        assert (window[0] == 0).all()  # padding row
        assert (window[1, 1:9, :] == 1).all()

    def test_pad_value_respected(self):
        layer = conv_layer()
        tile = np.ones((8, 8, 4), dtype=np.int8)
        window = fn.gather_input_window(tile, 0, layer, 0, 4, pad_value=-128)
        assert (window[0] == -128).all()

    def test_partial_tile_offset(self):
        layer = conv_layer(h=32)
        tile = np.full((10, 8, 4), 7, dtype=np.int8)  # rows [11, 21)
        window = fn.gather_input_window(tile, 11, layer, out_row0=12, out_rows=4)
        assert (window[:, 1:9, :] == 7).all()

    def test_rows_outside_tile_rejected(self):
        layer = conv_layer(h=32)
        tile = np.zeros((4, 8, 4), dtype=np.int8)  # rows [0, 4)
        with pytest.raises(ExecutionError):
            fn.gather_input_window(tile, 0, layer, out_row0=10, out_rows=4)


class TestConvStep:
    def test_matches_reference_conv(self):
        rng = np.random.default_rng(0)
        layer = conv_layer(h=8, w=8, cin=4, cout=8)
        data = rng.integers(-20, 21, size=(8, 8, 4)).astype(np.int8)
        weights = rng.integers(-10, 11, size=(3, 3, 4, 8)).astype(np.int8)
        bias = rng.integers(-100, 101, size=8).astype(np.int32)

        golden = qops.conv2d(data, weights, bias, (1, 1), (1, 1), 6, relu=True)

        # Tiled: two stripes of 4 output rows, accumulated per in-channel step.
        out = np.zeros_like(golden)
        for row0 in (0, 4):
            acc = np.zeros((4, 8, 8), dtype=np.int64)
            for in_ch0 in (0, 2):
                window = fn.gather_input_window(
                    data[:, :, in_ch0 : in_ch0 + 2], 0, layer, row0, 4
                )
                fn.conv_step(acc, window, weights[:, :, in_ch0 : in_ch0 + 2, :], layer)
            out[row0 : row0 + 4] = fn.finalize(acc, bias, 6, relu=True)
        assert np.array_equal(out, golden)


class TestFinalize:
    def test_shift_and_relu(self):
        acc = np.array([[[100, -100]]], dtype=np.int64)
        out = fn.finalize(acc, None, 2, relu=True)
        assert out[0, 0, 0] == 25
        assert out[0, 0, 1] == 0

    def test_bias_added_pre_shift(self):
        acc = np.zeros((1, 1, 1), dtype=np.int64)
        out = fn.finalize(acc, np.array([64], dtype=np.int32), 4, relu=False)
        assert out[0, 0, 0] == 4

    def test_saturation(self):
        acc = np.full((1, 1, 1), 1 << 30, dtype=np.int64)
        assert fn.finalize(acc, None, 0, relu=False)[0, 0, 0] == 127


class TestEltwiseAndPoolSteps:
    def test_eltwise_matches_qops(self):
        rng = np.random.default_rng(1)
        lhs = rng.integers(-128, 128, size=(4, 6, 8)).astype(np.int8)
        rhs = rng.integers(-128, 128, size=(4, 6, 8)).astype(np.int8)
        assert np.array_equal(
            fn.eltwise_step(lhs, rhs, relu=True), qops.eltwise_add(lhs, rhs, relu=True)
        )

    def test_pool_pad_value_max_only(self):
        max_pool = conv_layer()
        object.__setattr__(max_pool, "kind", "pool")
        object.__setattr__(max_pool, "mode", "max")
        assert fn.pool_pad_value(max_pool) == -128
        object.__setattr__(max_pool, "mode", "avg")
        assert fn.pool_pad_value(max_pool) == 0
        assert fn.pool_pad_value(conv_layer()) == 0

    def test_global_step_matches_qops(self):
        layer = conv_layer()
        object.__setattr__(layer, "kind", "global")
        object.__setattr__(layer, "mode", "avg")
        rng = np.random.default_rng(2)
        tile = rng.integers(-50, 51, size=(6, 6, 4)).astype(np.int8)
        assert np.array_equal(fn.global_step(tile, layer), qops.global_pool(tile, "avg"))
