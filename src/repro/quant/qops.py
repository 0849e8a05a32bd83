"""Reference quantized operators (the "golden model").

These numpy implementations define the bit-exact semantics of every layer the
accelerator executes: int8 feature maps in HWC layout, int8 weights in
``(kh, kw, cin, cout)`` layout, exact accumulation within the ``ACC_BITS`` =
32-bit bound (:mod:`repro.quant.kernels` enforces it), round-half-up
requantization shift, saturation, then ReLU.

The simulator in :mod:`repro.accel.functional` runs the *same* kernel stripe
by stripe; tests assert equality code-for-code, including across interrupts,
and against a tap-loop oracle that shares none of it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError
from repro.quant import kernels


def _check_feature_map(data: np.ndarray, name: str) -> np.ndarray:
    data = np.asarray(data)
    if data.ndim != 3:
        raise QuantizationError(f"{name} must be HWC (3-D), got shape {data.shape}")
    if data.dtype != np.int8:
        raise QuantizationError(f"{name} must be int8, got {data.dtype}")
    return data


def pad_hw(data: np.ndarray, padding: tuple[int, int], value: float = 0) -> np.ndarray:
    """Pad the spatial dims of an HWC map with ``value``."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return data
    return np.pad(data, ((ph, ph), (pw, pw), (0, 0)), mode="constant", constant_values=value)


def conv2d(
    data: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    shift: int,
    relu: bool,
) -> np.ndarray:
    """Quantized 2-D convolution.

    ``weights`` has shape ``(kh, kw, cin, cout)``; ``bias`` is int32 in
    accumulator scale (i.e. already shifted left by the requantization shift).
    Returns an int8 HWC map.
    """
    data = _check_feature_map(data, "conv input")
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise QuantizationError(f"conv weights must be (kh, kw, cin, cout), got {weights.shape}")
    if weights.shape[2] != data.shape[2]:
        raise QuantizationError(
            f"conv weights expect {weights.shape[2]} input channels, "
            f"feature map has {data.shape[2]}"
        )
    acc = kernels.int8_conv(pad_hw(data, padding), weights, stride)
    return kernels.requantize(acc, bias, shift, relu)


def depthwise_conv2d(
    data: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    shift: int,
    relu: bool,
) -> np.ndarray:
    """Quantized depthwise convolution; ``weights`` has shape ``(kh, kw, c)``."""
    data = _check_feature_map(data, "depthwise input")
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise QuantizationError(f"depthwise weights must be (kh, kw, c), got {weights.shape}")
    if weights.shape[2] != data.shape[2]:
        raise QuantizationError(
            f"depthwise weights expect {weights.shape[2]} channels, "
            f"feature map has {data.shape[2]}"
        )
    acc = kernels.int8_depthwise(pad_hw(data, padding), weights, stride)
    return kernels.requantize(acc, bias, shift, relu)


def pool2d(
    data: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    mode: str,
) -> np.ndarray:
    """Quantized max/average pooling (average truncates toward -inf, as a
    hardware shift-based divider does for power-of-two windows)."""
    data = _check_feature_map(data, "pool input")
    # Max-pool pads with the most negative code so padding never wins.
    padded = pad_hw(data, padding, value=-128 if mode == "max" else 0)
    return kernels.int8_pool(padded, kernel, stride, mode)


def eltwise_add(lhs: np.ndarray, rhs: np.ndarray, relu: bool) -> np.ndarray:
    """Quantized residual addition with int8 saturation."""
    lhs = _check_feature_map(lhs, "add lhs")
    rhs = _check_feature_map(rhs, "add rhs")
    if lhs.shape != rhs.shape:
        raise QuantizationError(f"add shapes differ: {lhs.shape} vs {rhs.shape}")
    total = lhs.astype(np.int64) + rhs.astype(np.int64)
    out = np.clip(total, -128, 127).astype(np.int8)
    if relu:
        out = np.maximum(out, 0).astype(np.int8)
    return out


def fully_connected(
    data: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    shift: int,
    relu: bool,
) -> np.ndarray:
    """Quantized dense layer on a flattened HWC map; returns (1, 1, out)."""
    data = _check_feature_map(data, "fc input")
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise QuantizationError(f"fc weights must be (in, out), got {weights.shape}")
    if data.size != weights.shape[0]:
        raise QuantizationError(
            f"fc expects {weights.shape[0]} inputs, feature map flattens to {data.size}"
        )
    # A dense layer is a 1x1 conv over the flattened map: same GEMM, same guard.
    acc = kernels.int8_conv(data.reshape(1, 1, -1), weights[None, None], (1, 1))
    return kernels.requantize(acc, bias, shift, relu)


def global_pool(data: np.ndarray, mode: str, p: float = 3.0) -> np.ndarray:
    """Global pooling to (1, 1, C).

    GeM pooling is evaluated in floating point (the paper runs it in
    post-processing, not on the CALC datapath) and re-quantized to int8 codes
    of the same format as the input.
    """
    data = _check_feature_map(data, "global pool input")
    if mode == "max":
        pooled: np.ndarray = data.max(axis=(0, 1), keepdims=True)
    elif mode == "avg":
        pooled = data.sum(axis=(0, 1), keepdims=True, dtype=np.int64) // (
            data.shape[0] * data.shape[1]
        )
    elif mode == "gem":
        real = np.maximum(data.astype(np.float64), 1e-6)
        mean = np.mean(np.power(real, p), axis=(0, 1), keepdims=True)
        pooled = np.clip(np.rint(np.power(mean, 1.0 / p)), -128, 127)
    else:
        raise QuantizationError(f"global pool mode must be max/avg/gem, got {mode!r}")
    return pooled.astype(np.int8)
