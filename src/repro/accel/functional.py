"""Functional (bit-exact) tile arithmetic for the accelerator core.

These helpers compute exactly what one CALC instruction computes: a stripe of
``Para_height`` output rows across the full output width, for one output
channel group, from one input-channel step; :func:`layer_rows` computes what
a run of finalized CALCs of one layer leaves, straight from DDR (a batched
stretch's arithmetic).  They share the datapath
kernel of :mod:`repro.quant.qops` — :mod:`repro.quant.kernels`: exact
accumulation within the ``ACC_BITS`` = 32-bit bound, held in int64 between
input-channel steps, round-half-up shift, int8 saturation — so a tiled,
interrupted execution can be compared bit-for-bit against the golden
whole-layer reference.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.layer_config import LayerConfig
from repro.errors import ExecutionError
from repro.hw.ddr import Ddr
from repro.quant import kernels
from repro.quant.qops import global_pool


def gather_input_window(
    tile_array: np.ndarray,
    tile_row0: int,
    layer: LayerConfig,
    out_row0: int,
    out_rows: int,
    pad_value: int = 0,
) -> np.ndarray:
    """Assemble the padded input window a CALC stripe reads.

    Returns an array of shape ``(window_rows, W_in + 2*pw, tile_channels)``
    where ``window_rows = (out_rows-1)*sh + kh``; rows outside the image and
    the horizontal padding hold ``pad_value`` (0 for conv/avg-pool, -128 for
    max-pool so padding never wins the maximum).
    """
    sh = layer.stride[0]
    kh = layer.kernel[0]
    ph, pw = layer.padding
    in_h = layer.in_shape.height
    start = out_row0 * sh - ph
    window_rows = (out_rows - 1) * sh + kh

    channels = tile_array.shape[2]
    window = np.full(
        (window_rows, layer.in_shape.width + 2 * pw, channels), pad_value, dtype=np.int8
    )
    valid_start = max(start, 0)
    valid_stop = min(start + window_rows, in_h)
    if valid_stop <= valid_start:
        raise ExecutionError(
            f"layer {layer.name!r}: CALC window rows [{start}, {start + window_rows}) "
            f"have no overlap with the image"
        )
    tile_lo = valid_start - tile_row0
    tile_hi = valid_stop - tile_row0
    if tile_lo < 0 or tile_hi > tile_array.shape[0]:
        raise ExecutionError(
            f"layer {layer.name!r}: CALC needs input rows [{valid_start}, {valid_stop}) "
            f"but the resident tile holds [{tile_row0}, {tile_row0 + tile_array.shape[0]})"
        )
    window[valid_start - start : valid_stop - start, pw : pw + layer.in_shape.width, :] = (
        tile_array[tile_lo:tile_hi]
    )
    return window


def conv_step(
    acc: np.ndarray, window: np.ndarray, weights: np.ndarray, layer: LayerConfig
) -> None:
    """Accumulate one input-channel step of a convolution into ``acc``.

    ``window`` is the padded input for this step's channels; ``weights`` has
    shape ``(kh, kw, step_in_chs, group_chs)``.  The kernel's ``ACC_BITS``
    guard sees this step's depth only; the layer's full depth is checked where
    it is visible, in the golden :func:`repro.quant.qops.conv2d`.
    """
    acc += kernels.int8_conv(window, weights, layer.stride)


def depthwise_step(window: np.ndarray, weights: np.ndarray, layer: LayerConfig) -> np.ndarray:
    """Full depthwise accumulation for one channel group (single-step blobs)."""
    return kernels.int8_depthwise(window, weights, layer.stride)


def pool_step(window: np.ndarray, layer: LayerConfig) -> np.ndarray:
    """Max/avg pooling of one stripe x channel group; returns int8."""
    return kernels.int8_pool(window, layer.kernel, layer.stride, layer.mode)


def pool_pad_value(layer: LayerConfig) -> int:
    """Padding fill for a layer's input window."""
    if layer.kind == "pool" and layer.mode == "max":
        return -128
    return 0


def finalize(acc: np.ndarray, bias: np.ndarray | None, shift: int, relu: bool) -> np.ndarray:
    """CALC_F epilogue: bias add, requantization shift, saturation, ReLU."""
    return kernels.requantize(acc, bias, shift, relu)


def eltwise_step(lhs: np.ndarray, rhs: np.ndarray, relu: bool) -> np.ndarray:
    """Residual addition of one stripe x channel group."""
    total = lhs.astype(np.int64) + rhs.astype(np.int64)
    out = np.clip(total, -128, 127).astype(np.int8)
    if relu:
        out = np.maximum(out, 0).astype(np.int8)
    return out


def global_step(tile_slice: np.ndarray, layer: LayerConfig) -> np.ndarray:
    """Global pooling of one channel group over the full spatial extent."""
    return global_pool(tile_slice, mode=layer.mode, p=layer.gem_p)


def layer_rows(
    ddr: Ddr, layer: LayerConfig, row0: int, rows: int, ch0: int, chs: int
) -> np.ndarray:
    """Finalized int8 output rows ``[row0, row0+rows)`` x channels
    ``[ch0, ch0+chs)`` of ``layer``, read from its operand regions in DDR.

    This is what the CALCs of those rows and channels finalize when each
    closes a chain of the layer's full input depth with the layer's shift,
    ReLU and bias: the same steps over a wider window, in one kernel call
    (integer sums do not depend on how the input depth was chunked).
    """
    source = ddr.region(layer.input_region).array
    outs = slice(ch0, ch0 + chs)
    if layer.kind == "global":
        return global_step(source[:, :, outs], layer)
    if layer.kind == "add":
        assert layer.input2_region is not None
        second = ddr.region(layer.input2_region).array
        return eltwise_step(
            source[row0 : row0 + rows, :, outs], second[row0 : row0 + rows, :, outs], layer.relu
        )
    channels = source if layer.kind == "conv" else source[:, :, outs]
    window = gather_input_window(channels, 0, layer, row0, rows, pool_pad_value(layer))
    if layer.kind == "pool":
        return pool_step(window, layer)
    assert layer.weight_region is not None
    weights = ddr.region(layer.weight_region).array
    if layer.kind == "depthwise":
        sums = depthwise_step(window, weights[:, :, outs], layer)
    else:
        sums = kernels.int8_conv(window, weights[:, :, :, outs], layer.stride)
    bias = None
    if layer.bias and layer.bias_region is not None:
        bias = ddr.region(layer.bias_region).array[outs]
    return finalize(sums, bias, layer.shift, layer.relu)
