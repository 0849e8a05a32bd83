"""Fixed-point formats, calibration, and the reference quantized operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quant import (
    FixedPointFormat,
    INT8_MAX,
    INT8_MIN,
    choose_format,
    conv2d,
    depthwise_conv2d,
    eltwise_add,
    fully_connected,
    global_pool,
    pool2d,
    relative_rms_error,
    requantize_shift,
    saturating_shift,
)


class TestFixedPointFormat:
    def test_scale(self):
        assert FixedPointFormat(4).scale == pytest.approx(1 / 16)

    def test_quantize_rounds_to_nearest(self):
        fmt = FixedPointFormat(4)
        assert fmt.quantize(np.array([0.5]))[0] == 8

    def test_quantize_saturates_high(self):
        fmt = FixedPointFormat(0)
        assert fmt.quantize(np.array([1000.0]))[0] == INT8_MAX

    def test_quantize_saturates_low(self):
        fmt = FixedPointFormat(0)
        assert fmt.quantize(np.array([-1000.0]))[0] == INT8_MIN

    def test_dequantize_inverse_on_grid(self):
        fmt = FixedPointFormat(3)
        codes = np.arange(-128, 128, dtype=np.int8)
        assert np.array_equal(fmt.quantize(fmt.dequantize(codes)), codes)

    def test_negative_frac_bits_allowed(self):
        fmt = FixedPointFormat(-2)
        assert fmt.scale == 4.0

    def test_rejects_extreme_frac_bits(self):
        with pytest.raises(QuantizationError):
            FixedPointFormat(40)

    def test_quantization_error_small_on_grid(self):
        fmt = FixedPointFormat(4)
        values = np.array([0.25, -0.5, 1.0])
        assert fmt.quantization_error(values) == 0.0

    @given(st.integers(min_value=-4, max_value=10))
    def test_error_bounded_by_half_lsb(self, frac_bits):
        fmt = FixedPointFormat(frac_bits)
        rng = np.random.default_rng(frac_bits + 100)
        values = rng.uniform(fmt.min_value, fmt.max_value, size=64)
        round_trip = fmt.dequantize(fmt.quantize(values))
        assert np.max(np.abs(values - round_trip)) <= fmt.scale / 2 + 1e-12


class TestRequantizeShift:
    def test_basic(self):
        shift = requantize_shift(FixedPointFormat(4), FixedPointFormat(6), FixedPointFormat(4))
        assert shift == 6

    def test_rejects_precision_gain(self):
        with pytest.raises(QuantizationError):
            requantize_shift(FixedPointFormat(0), FixedPointFormat(0), FixedPointFormat(4))


class TestSaturatingShift:
    def test_round_half_up(self):
        assert saturating_shift(np.array([3]), 1)[0] == 2  # (3+1)>>1
        assert saturating_shift(np.array([2]), 1)[0] == 1  # (2+1)>>1 == 1

    def test_zero_shift(self):
        assert saturating_shift(np.array([42]), 0)[0] == 42

    def test_saturation(self):
        assert saturating_shift(np.array([10_000]), 0)[0] == 127
        assert saturating_shift(np.array([-10_000]), 0)[0] == -128

    def test_scalar_and_array_like_input(self):
        assert int(saturating_shift(np.int64(5), 1)) == 3
        assert int(saturating_shift(np.array(300), 0)) == 127
        assert int(saturating_shift(7, 1)) == 4
        assert saturating_shift([[3, -3]], 1).tolist() == [[2, -1]]
        # Any numeric input is read as int64 first, so floats truncate.
        assert saturating_shift(np.array([2.7, -2.7]), 0).tolist() == [2, -2]

    def test_bias_and_relu_leave_the_accumulator_unwritten(self):
        acc = np.array([[-40, 40]], dtype=np.int64)
        before = acc.copy()
        out = saturating_shift(acc, 2, np.array([4, -4], dtype=np.int32), relu=True)
        assert out.tolist() == [[0, 9]]  # (-36+2)>>2 = -9 -> 0, (36+2)>>2 = 9
        assert out.dtype == np.int8
        assert np.array_equal(acc, before)

    @given(st.integers(min_value=-(2**20), max_value=2**20), st.integers(0, 12))
    def test_matches_float_reference(self, value, shift):
        result = int(saturating_shift(np.array([value]), shift)[0])
        expected = int(np.clip(np.floor((value + (1 << shift) // 2) / (1 << shift)) if shift else value, -128, 127))
        assert result == expected


class TestCalibration:
    def test_known_range(self):
        # frac_bits=8 would cap at 127/256 = 0.496 < 0.5, so 7 is the finest
        # format that still covers the data.
        fmt = choose_format(np.array([0.5, -0.25]))
        assert fmt.frac_bits == 7
        assert fmt.max_value >= 0.5

    def test_zero_tensor_gets_max_precision(self):
        assert choose_format(np.zeros(10)).frac_bits == 14

    def test_large_values_negative_frac(self):
        fmt = choose_format(np.array([1000.0]))
        assert fmt.frac_bits < 0
        assert fmt.max_value >= 1000.0

    def test_percentile_ignores_outliers(self):
        values = np.concatenate([np.full(999, 0.1), [100.0]])
        tight = choose_format(values, percentile=99.0)
        loose = choose_format(values, percentile=100.0)
        assert tight.frac_bits > loose.frac_bits

    def test_rejects_empty(self):
        with pytest.raises(QuantizationError):
            choose_format(np.array([]))

    def test_rejects_bad_percentile(self):
        with pytest.raises(QuantizationError):
            choose_format(np.ones(4), percentile=0)

    def test_relative_error_reasonable(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 0.1, size=1000)
        fmt = choose_format(values)
        assert relative_rms_error(values, fmt) < 0.02

    def test_relative_error_zero_tensor(self):
        assert relative_rms_error(np.zeros(8), FixedPointFormat(4)) == 0.0


def _random_map(rng, h, w, c):
    return rng.integers(-128, 128, size=(h, w, c), dtype=np.int64).astype(np.int8)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        data = _random_map(rng, 5, 5, 2)
        weights = np.zeros((1, 1, 2, 2), dtype=np.int8)
        weights[0, 0, 0, 0] = 1
        weights[0, 0, 1, 1] = 1
        out = conv2d(data, weights, None, (1, 1), (0, 0), 0, relu=False)
        assert np.array_equal(out, data)

    def test_relu_clamps_negative(self):
        data = np.full((3, 3, 1), -10, dtype=np.int8)
        weights = np.ones((1, 1, 1, 1), dtype=np.int8)
        out = conv2d(data, weights, None, (1, 1), (0, 0), 0, relu=True)
        assert (out == 0).all()

    def test_bias_applied_before_shift(self):
        data = np.zeros((2, 2, 1), dtype=np.int8)
        weights = np.zeros((1, 1, 1, 1), dtype=np.int8)
        bias = np.array([32], dtype=np.int32)
        out = conv2d(data, weights, bias, (1, 1), (0, 0), 4, relu=False)
        assert (out == 2).all()

    def test_matches_float_conv_small(self):
        rng = np.random.default_rng(2)
        data = _random_map(rng, 6, 6, 3)
        weights = rng.integers(-4, 5, size=(3, 3, 3, 4)).astype(np.int8)
        out = conv2d(data, weights, None, (1, 1), (1, 1), 0, relu=False)
        # Reference via explicit loops at one position.
        padded = np.pad(data.astype(np.int64), ((1, 1), (1, 1), (0, 0)))
        acc = sum(
            padded[2 + dy, 3 + dx, ci] * weights[dy, dx, ci, 1]
            for dy in range(3)
            for dx in range(3)
            for ci in range(3)
        )
        assert out[2, 3, 1] == np.clip(acc, -128, 127)

    def test_stride_downsamples(self):
        rng = np.random.default_rng(3)
        data = _random_map(rng, 8, 8, 1)
        weights = np.ones((1, 1, 1, 1), dtype=np.int8)
        out = conv2d(data, weights, None, (2, 2), (0, 0), 0, relu=False)
        assert out.shape == (4, 4, 1)
        assert np.array_equal(out, data[::2, ::2, :])

    def test_rejects_channel_mismatch(self):
        data = np.zeros((4, 4, 3), dtype=np.int8)
        weights = np.zeros((1, 1, 2, 4), dtype=np.int8)
        with pytest.raises(QuantizationError):
            conv2d(data, weights, None, (1, 1), (0, 0), 0, relu=False)

    def test_rejects_non_int8_input(self):
        data = np.zeros((4, 4, 3), dtype=np.float32)
        weights = np.zeros((1, 1, 3, 4), dtype=np.int8)
        with pytest.raises(QuantizationError):
            conv2d(data, weights, None, (1, 1), (0, 0), 0, relu=False)


class TestDepthwise:
    def test_per_channel_independence(self):
        rng = np.random.default_rng(4)
        data = _random_map(rng, 6, 6, 2)
        weights = np.zeros((3, 3, 2), dtype=np.int8)
        weights[1, 1, 0] = 1  # identity on channel 0, zero on channel 1
        out = depthwise_conv2d(data, weights, None, (1, 1), (1, 1), 0, relu=False)
        assert np.array_equal(out[:, :, 0], data[:, :, 0])
        assert (out[:, :, 1] == 0).all()

    def test_rejects_bad_weight_rank(self):
        data = np.zeros((4, 4, 2), dtype=np.int8)
        with pytest.raises(QuantizationError):
            depthwise_conv2d(data, np.zeros((3, 3, 2, 2), dtype=np.int8), None, (1, 1), (1, 1), 0, False)


class TestPool:
    def test_max_pool(self):
        data = np.array([[[1], [2]], [[3], [4]]], dtype=np.int8)
        out = pool2d(data, (2, 2), (2, 2), (0, 0), "max")
        assert out[0, 0, 0] == 4

    def test_avg_pool_truncates(self):
        data = np.array([[[1], [2]], [[3], [5]]], dtype=np.int8)
        out = pool2d(data, (2, 2), (2, 2), (0, 0), "avg")
        assert out[0, 0, 0] == 2  # 11 // 4

    def test_max_pool_padding_never_wins(self):
        data = np.full((2, 2, 1), -100, dtype=np.int8)
        out = pool2d(data, (3, 3), (2, 2), (1, 1), "max")
        assert (out == -100).all()

    def test_rejects_unknown_mode(self):
        with pytest.raises(QuantizationError):
            pool2d(np.zeros((4, 4, 1), dtype=np.int8), (2, 2), (2, 2), (0, 0), "median")


class TestEltwiseAdd:
    def test_saturates(self):
        lhs = np.full((2, 2, 1), 100, dtype=np.int8)
        rhs = np.full((2, 2, 1), 100, dtype=np.int8)
        assert (eltwise_add(lhs, rhs, relu=False) == 127).all()

    def test_relu(self):
        lhs = np.full((2, 2, 1), -5, dtype=np.int8)
        rhs = np.full((2, 2, 1), 2, dtype=np.int8)
        assert (eltwise_add(lhs, rhs, relu=True) == 0).all()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(QuantizationError):
            eltwise_add(
                np.zeros((2, 2, 1), dtype=np.int8),
                np.zeros((2, 2, 2), dtype=np.int8),
                relu=False,
            )


class TestFullyConnected:
    def test_flatten_order_matches_hwc(self):
        data = np.arange(8, dtype=np.int8).reshape(2, 2, 2)
        weights = np.eye(8, dtype=np.int8)
        out = fully_connected(data, weights, None, 0, relu=False)
        assert np.array_equal(out.reshape(-1), data.reshape(-1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(QuantizationError):
            fully_connected(
                np.zeros((2, 2, 2), dtype=np.int8),
                np.zeros((4, 3), dtype=np.int8),
                None,
                0,
                relu=False,
            )


class TestGlobalPool:
    def test_avg(self):
        data = np.stack([np.full((2, 2), 4), np.full((2, 2), 8)], axis=-1).astype(np.int8)
        out = global_pool(data, "avg")
        assert out[0, 0, 0] == 4 and out[0, 0, 1] == 8

    def test_max(self):
        data = np.zeros((3, 3, 1), dtype=np.int8)
        data[1, 1, 0] = 99
        assert global_pool(data, "max")[0, 0, 0] == 99

    def test_gem_between_avg_and_max(self):
        rng = np.random.default_rng(5)
        data = rng.integers(1, 100, size=(4, 4, 1)).astype(np.int8)
        gem = int(global_pool(data, "gem", p=3.0)[0, 0, 0])
        avg = int(data.astype(int).mean())
        mx = int(data.max())
        assert avg <= gem <= mx

    def test_rejects_unknown_mode(self):
        with pytest.raises(QuantizationError):
            global_pool(np.zeros((2, 2, 1), dtype=np.int8), "sum")


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    cin=st.integers(1, 4),
    cout=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_conv_linearity_property(h, w, cin, cout, seed):
    """conv(a + b) == conv(a) + conv(b) in the wide accumulator (pre-shift).

    Verified via a shift of 0, no relu, and inputs small enough to avoid
    saturation — the core linear-algebra sanity of the quantized conv.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(h, w, cin)).astype(np.int8)
    b = rng.integers(-5, 6, size=(h, w, cin)).astype(np.int8)
    weights = rng.integers(-2, 3, size=(1, 1, cin, cout)).astype(np.int8)
    out_sum = conv2d((a + b).astype(np.int8), weights, None, (1, 1), (0, 0), 0, relu=False)
    out_a = conv2d(a, weights, None, (1, 1), (0, 0), 0, relu=False)
    out_b = conv2d(b, weights, None, (1, 1), (0, 0), 0, relu=False)
    assert np.array_equal(out_sum.astype(np.int64), out_a.astype(np.int64) + out_b.astype(np.int64))
