"""``repro.quant.kernels`` against an oracle that shares none of its code.

Whole-layer ``qops`` calls, per-CALC ``accel.functional`` stripes and the raw
kernel are all compared with the tap loops in ``tests/tap_loop_oracle.py``:
the float64 GEMM must be *exactly* the int64 sum, for every kernel size,
stride, padding, stripe split and input-channel step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import functional as fn
from repro.compiler.layer_config import LayerConfig
from repro.errors import QuantizationError
from repro.nn.tensor import TensorShape
from repro.quant import kernels, qops
from repro.quant.fixed_point import ACC_BITS

from . import tap_loop_oracle as oracle

#: Four times the zoo's deepest dot product (3*3*512: ResNet-101 res5, VGG-16
#: conv5, Darknet-19 conv18) — a 3x3 conv over a 2048-channel map.
STRESS_DEPTH = 3 * 3 * 2048


def int8(rng, *shape):
    return rng.integers(-128, 128, size=shape).astype(np.int8)


@st.composite
def layer_cases(draw, kinds=("conv", "depthwise", "pool")):
    """A random layer geometry, its operands, and a way to split it."""
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, kernel // 2)), draw(st.integers(0, kernel // 2)))
    height = draw(st.integers(kernel, kernel + 9))
    width = draw(st.integers(kernel, kernel + 9))
    kind = draw(st.sampled_from(kinds))
    cin = draw(st.integers(1, 6))
    cout = draw(st.integers(1, 5)) if kind == "conv" else cin
    out_h = (height + 2 * padding[0] - kernel) // stride[0] + 1
    out_w = (width + 2 * padding[1] - kernel) // stride[1] + 1
    layer = LayerConfig(
        layer_id=0, name=kind, kind=kind,
        in_shape=TensorShape(height, width, cin), out_shape=TensorShape(out_h, out_w, cout),
        input_region="in", output_region="out",
        kernel=(kernel, kernel), stride=stride, padding=padding,
        relu=draw(st.booleans()), bias=True, shift=draw(st.integers(0, 12)),
        mode=draw(st.sampled_from(["max", "avg"])) if kind == "pool" else "",
        weight_region=None if kind == "pool" else "w", bias_region="b",
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight_shape = {"conv": (kernel, kernel, cin, cout), "depthwise": (kernel, kernel, cin)}
    return dict(
        layer=layer,
        data=int8(rng, height, width, cin),
        weights=int8(rng, *weight_shape[kind]) if kind != "pool" else None,
        bias=rng.integers(-(2**20), 2**20, size=cout).astype(np.int32),
        stripe_rows=draw(st.integers(1, out_h)),
        in_step=draw(st.integers(1, cin)),
    )


def oracle_layer(layer, data, weights, bias):
    """The whole layer, computed by tap loops only."""
    if layer.kind == "pool":
        fill = -128 if layer.mode == "max" else 0
        padded = oracle.pad(data, layer.padding, fill)
        return oracle.int8_pool(padded, layer.kernel, layer.stride, layer.mode)
    op = oracle.int8_conv if layer.kind == "conv" else oracle.int8_depthwise
    acc = op(oracle.pad(data, layer.padding), weights, layer.stride)
    return oracle.requantize(acc, bias, layer.shift, layer.relu)


def qops_layer(layer, data, weights, bias):
    if layer.kind == "pool":
        return qops.pool2d(data, layer.kernel, layer.stride, layer.padding, layer.mode)
    op = qops.conv2d if layer.kind == "conv" else qops.depthwise_conv2d
    return op(data, weights, bias, layer.stride, layer.padding, layer.shift, layer.relu)


def striped_layer(layer, data, weights, bias, stripe_rows, in_step):
    """The layer as the core executes it: stripes of rows, and for a conv a
    chain of input-channel steps into one accumulator.  Tiles are channel
    slices of ``data``, i.e. non-contiguous views."""
    out = np.empty(
        (layer.out_shape.height, layer.out_shape.width, layer.out_shape.channels), np.int8
    )
    cin = layer.in_shape.channels
    for row0 in range(0, layer.out_shape.height, stripe_rows):
        rows = min(stripe_rows, layer.out_shape.height - row0)
        if layer.kind == "conv":
            acc = np.zeros((rows, layer.out_shape.width, layer.out_shape.channels), np.int64)
            for ch0 in range(0, cin, in_step):
                window = fn.gather_input_window(
                    data[:, :, ch0 : ch0 + in_step], 0, layer, row0, rows
                )
                fn.conv_step(acc, window, weights[:, :, ch0 : ch0 + in_step, :], layer)
            out[row0 : row0 + rows] = fn.finalize(acc, bias, layer.shift, layer.relu)
            continue
        window = fn.gather_input_window(
            data, 0, layer, row0, rows, pad_value=fn.pool_pad_value(layer)
        )
        if layer.kind == "depthwise":
            acc = fn.depthwise_step(window, weights, layer)
            out[row0 : row0 + rows] = fn.finalize(acc, bias, layer.shift, layer.relu)
        else:
            out[row0 : row0 + rows] = fn.pool_step(window, layer)
    return out


class TestAgainstTapLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=layer_cases())
    def test_whole_layer_and_stripes_match_oracle(self, case):
        stripe_rows, in_step = case.pop("stripe_rows"), case.pop("in_step")
        expected = oracle_layer(**case)
        whole = qops_layer(**case)
        assert whole.dtype == np.int8
        assert np.array_equal(whole, expected)
        assert np.array_equal(striped_layer(**case, stripe_rows=stripe_rows, in_step=in_step),
                              expected)

    @settings(max_examples=50, deadline=None)
    @given(case=layer_cases(kinds=("conv",)), scratch=st.integers(1, 4096))
    def test_row_chunking_is_invisible(self, case, scratch):
        """A whole layer forced through many tiny im2col chunks is unchanged."""
        operands = (case["layer"], case["data"], case["weights"], case["bias"])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "SCRATCH_BYTES", scratch)
            got = qops_layer(*operands)
        assert np.array_equal(got, oracle_layer(*operands))

    @settings(max_examples=50, deadline=None)
    @given(case=layer_cases(kinds=("conv", "depthwise")))
    def test_non_contiguous_operands(self, case):
        """Channel-sliced and column-strided views go through the patch view
        without a defensive copy and still match."""
        layer, data, weights = case["layer"], case["data"], case["weights"]
        wide = np.repeat(oracle.pad(data, layer.padding), 2, axis=2)[:, :, ::2]
        assert wide.strides[2] == 2
        if layer.kind == "conv":
            got = kernels.int8_conv(wide, weights[:, :, :, ::-1], layer.stride)
            want = oracle.int8_conv(wide, weights[:, :, :, ::-1], layer.stride)
        else:
            got = kernels.int8_depthwise(wide, weights, layer.stride)
            want = oracle.int8_depthwise(wide, weights, layer.stride)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), shift=st.integers(0, 20), relu=st.booleans(),
        with_bias=st.booleans(),
    )
    def test_requantize_matches_floor_division(self, seed, shift, relu, with_bias):
        rng = np.random.default_rng(seed)
        limit = 2 ** (ACC_BITS - 1)
        acc = rng.integers(-limit, limit, size=(3, 4, 5), dtype=np.int64)
        acc[0, 0, :4] = (-limit, limit - 1, -(2**shift) // 2, 2**shift // 2 - 1)
        bias = rng.integers(-limit, limit, size=5).astype(np.int32) if with_bias else None
        before = acc.copy()
        got = kernels.requantize(acc, bias, shift, relu)
        assert got.dtype == np.int8
        assert np.array_equal(got, oracle.requantize(acc, bias, shift, relu))
        assert np.array_equal(acc, before)  # the accumulator is not consumed

    def test_float_conv_and_depthwise_match_float_tap_loops(self):
        """``float_ref`` hands the same kernel real-valued operands."""
        rng = np.random.default_rng(5)
        window = rng.normal(size=(9, 11, 4))
        weights = rng.normal(size=(3, 3, 4, 6))
        want = sum(
            np.tensordot(sub, weights[dy, dx], axes=([2], [0]))
            for dy, dx, sub in oracle.taps(window, (3, 3), (2, 1))
        )
        assert np.allclose(kernels.conv(window, weights, (2, 1)), want, rtol=1e-12, atol=1e-12)
        depth = weights[:, :, :, 0]
        want = sum(sub * depth[dy, dx] for dy, dx, sub in oracle.taps(window, (3, 3), (1, 2)))
        assert np.allclose(kernels.depthwise(window, depth, (1, 2)), want, rtol=1e-12, atol=1e-12)


class TestPatchView:
    def test_view_shares_memory_is_read_only_and_matches_slicing(self):
        window = int8(np.random.default_rng(3), 7, 9, 4)[:, :, 1:3]
        taps = kernels.patches(window, (3, 2), (2, 3))
        assert taps.shape == (3, 3, 3, 2, 2)
        assert np.shares_memory(taps, window) and not taps.flags.writeable
        for dy, dx, sub in oracle.taps(window, (3, 2), (2, 3)):
            assert np.array_equal(taps[:, :, dy, dx, :], sub)

    @pytest.mark.parametrize(
        "kernel, stride", [((4, 1), (1, 1)), ((1, 6), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 1))]
    )
    def test_geometry_that_would_read_outside_the_window_is_refused(self, kernel, stride):
        with pytest.raises(QuantizationError, match="does not fit"):
            kernels.patches(np.zeros((3, 5, 2), np.int8), kernel, stride)


class TestPoolSemantics:
    def test_max_pool_padding_never_wins(self):
        data = np.full((4, 4, 2), -100, dtype=np.int8)
        out = qops.pool2d(data, (3, 3), (2, 2), (1, 1), "max")
        assert (out == -100).all()  # zero padding would have produced 0
        lowest = np.full((2, 2, 1), -128, dtype=np.int8)
        assert (qops.pool2d(lowest, (3, 3), (1, 1), (1, 1), "max") == -128).all()

    def test_avg_pool_floors_toward_minus_infinity(self):
        data = np.zeros((2, 2, 2), dtype=np.int8)
        data[0, 0] = (-1, 1)
        out = qops.pool2d(data, (2, 2), (2, 2), (0, 0), "avg")
        assert out.tolist() == [[[-1, 0]]]  # floor(-1/4) = -1, floor(1/4) = 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(QuantizationError, match="pool mode"):
            qops.pool2d(np.zeros((2, 2, 1), np.int8), (2, 2), (2, 2), (0, 0), "median")


class TestAccumulatorBound:
    def test_extreme_operands_at_3x3x2048_are_exact(self):
        """All-(-128) x all-(-128) over 3*3*2048 terms: larger than any sum a
        zoo layer can produce, far above float32's 2**24 integer range."""
        window = np.full((3, 5, 2048), -128, dtype=np.int8)
        weights = np.full((3, 3, 2048, 2), -128, dtype=np.int8)
        acc = kernels.int8_conv(window, weights, (1, 1))
        assert acc.shape == (1, 3, 2)
        assert (acc == STRESS_DEPTH * 2**14).all()
        mixed = kernels.int8_conv(window, -1 - weights, (1, 1))  # -128 x 127
        assert (mixed == STRESS_DEPTH * -128 * 127).all()

    def test_longest_safe_dot_product_is_exact_and_one_more_is_refused(self):
        assert kernels.MAX_DOT_LENGTH * 2**14 < 2 ** (ACC_BITS - 1)
        assert (kernels.MAX_DOT_LENGTH + 1) * 2**14 >= 2 ** (ACC_BITS - 1)
        depth = kernels.MAX_DOT_LENGTH
        data = np.full((1, 1, depth), -128, dtype=np.int8)
        weights = np.full((depth, 1), -128, dtype=np.int8)
        acc = kernels.int8_conv(data, weights[None, None], (1, 1))
        assert acc.item() == depth * 2**14 < 2 ** (ACC_BITS - 1)

        data = np.zeros((1, 1, depth + 1), dtype=np.int8)
        weights = np.zeros((depth + 1, 1), dtype=np.int8)
        with pytest.raises(QuantizationError, match=f"{ACC_BITS}-bit"):
            kernels.int8_conv(data, weights[None, None], (1, 1))
        with pytest.raises(QuantizationError, match=f"{ACC_BITS}-bit"):
            qops.fully_connected(data, weights, None, 0, relu=False)
        with pytest.raises(QuantizationError, match=f"{ACC_BITS}-bit"):
            qops.conv2d(data, weights[None, None], None, (1, 1), (0, 0), 0, relu=False)

    def test_wider_operands_are_refused(self):
        """The bound is an int8 bound: an int16 operand voids it."""
        window = np.zeros((3, 3, 2), dtype=np.int8)
        weights = np.zeros((3, 3, 2, 1), dtype=np.int16)
        with pytest.raises(QuantizationError, match="int16"):
            kernels.int8_conv(window, weights, (1, 1))
        with pytest.raises(QuantizationError, match="int16"):
            kernels.int8_depthwise(window, weights[..., 0], (1, 1))
