"""The one sliding-window kernel behind every conv, depthwise and pool.

A padded HWC window is exposed as a read-only *patch view* of shape
``(out_h, out_w, kh, kw, C)`` — no data moves until an operator consumes it:

* conv is **one** ``float64`` GEMM of the ``(out_h*out_w, kh*kw*cin)`` patch
  matrix against the ``(kh*kw*cin, cout)`` weights,
* depthwise is one multiply-and-sum over the two tap axes,
* max/avg pool is one reduction over the stacked taps,

and :func:`requantize` is the single bias -> round-half-up shift -> saturate
-> ReLU epilogue.  The whole-layer golden model (:mod:`repro.quant.qops`),
the per-CALC stripe arithmetic (:mod:`repro.accel.functional`) and the float
reference (:mod:`repro.quant.float_ref`) all call these functions, so "tiled
equals whole-layer" compares one kernel with itself over different row ranges.

**Why float64 is exact for int8.**  ``|a * w| <= 2**14`` for int8 operands,
so a dot product of length ``K`` is an integer of magnitude at most
``K * 2**14``.  :func:`int8_conv` and :func:`int8_depthwise` refuse any ``K``
whose worst case does not fit the declared ``ACC_BITS``-bit signed accumulator
(``K * 2**14 >= 2**31``); every product and every partial sum — in whatever
order BLAS adds them, fused or not — is therefore an integer far below the
``2**53`` float64 mantissa and is represented exactly.  float64 is how numpy
reaches BLAS (integer ``matmul`` does not), not an approximation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import QuantizationError
from repro.quant.fixed_point import ACC_BITS, DATA_BITS, saturating_shift

#: Longest dot product whose worst case fits the signed accumulator.
MAX_DOT_LENGTH = (1 << (ACC_BITS - 1 - 2 * (DATA_BITS - 1))) - 1

#: Upper bound on one im2col patch matrix; whole-layer calls run in row
#: chunks of this size, a CALC stripe is always a single chunk.
SCRATCH_BYTES = 4 << 20


def patches(window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """Read-only ``(out_h, out_w, kh, kw, C)`` view of a padded HWC window.

    The strides are set directly rather than through ``sliding_window_view``
    (whose per-call argument handling cost a third of a CALC); every index
    the view can form lies inside ``window`` because the output extent is
    derived here from the window's own shape.
    """
    (kh, kw), (sh, sw) = kernel, stride
    height, width, channels = window.shape
    if not (0 < kh <= height and 0 < kw <= width and sh > 0 and sw > 0):
        raise QuantizationError(
            f"kernel {kernel} / stride {stride} does not fit a {height}x{width} window"
        )
    row, col, chan = window.strides
    return as_strided(
        window,
        ((height - kh) // sh + 1, (width - kw) // sw + 1, kh, kw, channels),
        (row * sh, col * sw, row, col, chan),
        writeable=False,
    )


def tap_stack(window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """One ``(out_h, out_w, C)`` map per kernel tap, stacked on a new axis 0
    (a copy): what a pool reduces over."""
    taps = patches(window, kernel, stride)
    out_h, out_w, _, _, channels = taps.shape
    return taps.transpose(2, 3, 0, 1, 4).reshape(-1, out_h, out_w, channels)


def conv(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """``float64`` accumulations of ``weights`` (kh, kw, cin, cout) over ``window``."""
    kh, kw, cin, cout = weights.shape
    taps = patches(window, (kh, kw), stride)
    out_h, out_w = taps.shape[:2]
    depth = kh * kw * cin
    matrix = weights.astype(np.float64, order="C").reshape(depth, cout)
    acc = np.empty((out_h, out_w, cout), dtype=np.float64)
    step = max(1, SCRATCH_BYTES // (8 * out_w * depth))
    for row in range(0, out_h, step):
        # The cast is the im2col copy: one pass from the strided view.
        cols = taps[row : row + step].astype(np.float64, order="C")
        np.matmul(cols.reshape(-1, depth), matrix, out=acc[row : row + step].reshape(-1, cout))
    return acc


def depthwise(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """``float64`` accumulations of per-channel ``weights`` (kh, kw, c)."""
    taps = patches(window, (weights.shape[0], weights.shape[1]), stride)
    acc: np.ndarray = np.einsum(
        "hwijc,ijc->hwc", taps, weights.astype(np.float64), dtype=np.float64, casting="safe"
    )
    return acc


def _require_exact(depth: int, window: np.ndarray, weights: np.ndarray) -> None:
    if window.dtype != np.int8 or weights.dtype != np.int8:
        raise QuantizationError(
            f"the int8 kernel got a {window.dtype} window and {weights.dtype} weights"
        )
    if depth > MAX_DOT_LENGTH:
        raise QuantizationError(
            f"a dot product of {depth} int8 terms can overflow the {ACC_BITS}-bit "
            f"accumulator (longest safe length is {MAX_DOT_LENGTH})"
        )


def int8_conv(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """Exact int64 conv accumulations of int8 operands (see module docstring)."""
    _require_exact(weights.shape[0] * weights.shape[1] * weights.shape[2], window, weights)
    return conv(window, weights, stride).astype(np.int64)


def int8_depthwise(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """Exact int64 depthwise accumulations of int8 operands."""
    _require_exact(weights.shape[0] * weights.shape[1], window, weights)
    return depthwise(window, weights, stride).astype(np.int64)


def int8_pool(
    window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int], mode: str
) -> np.ndarray:
    """Max or average pool of an int8 window; the average floors toward -inf,
    as a hardware shift-based divider does for power-of-two windows."""
    stack = tap_stack(window, kernel, stride)
    if mode == "max":
        pooled: np.ndarray = stack.max(axis=0)
    elif mode == "avg":
        pooled = (stack.sum(axis=0, dtype=np.int64) // stack.shape[0]).astype(np.int8)
    else:
        raise QuantizationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    return pooled


def requantize(acc: np.ndarray, bias: np.ndarray | None, shift: int, relu: bool) -> np.ndarray:
    """Bias add, round-half-up shift, int8 saturation, ReLU — the one epilogue.

    ``bias`` is in accumulator scale (already shifted left by ``shift``) and
    broadcasts over the last axis.
    """
    if bias is not None:
        acc = acc + bias
    out = saturating_shift(acc, shift)
    if relu:
        np.maximum(out, 0, out=out)
    return out
