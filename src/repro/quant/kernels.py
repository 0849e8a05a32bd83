"""The one sliding-window kernel behind every conv, depthwise and pool.

A padded HWC window is exposed as a read-only *patch view* of shape
``(out_h, out_w, kh, kw, C)`` — no data moves until an operator consumes it:

* conv is one GEMM of the ``(out_h*out_w, kh*kw*cin)`` patch matrix
  against the ``(kh*kw*cin, cout)`` weights,
* depthwise is one multiply-and-sum over the two tap axes,
* max/avg pool is one reduction over the stacked taps,

and :func:`requantize` is the single bias -> round-half-up shift -> saturate
-> ReLU epilogue.  The whole-layer golden model (:mod:`repro.quant.qops`),
the per-CALC stripe arithmetic (:mod:`repro.accel.functional`) and the float
reference (:mod:`repro.quant.float_ref`) all call these functions, so "tiled
equals whole-layer" compares one kernel with itself over different row ranges.

**Why float32 is exact for int8.**  ``|a * w| <= 2**14`` for int8 operands,
so a dot product of ``K`` terms is an integer of magnitude at most
``K * 2**14``.  :func:`int8_conv` sums each dot product in depth chunks of
at most :data:`F32_DEPTH` = 1024 terms, one float32 GEMM per chunk: a
chunk's every product and partial sum is an integer of magnitude at most
``1024 * 2**14 = 2**24``, which float32's 24-bit significand holds exactly
in whatever order BLAS adds them, fused or not.  The chunk sums are added
in int64.  :func:`int8_depthwise` sums its ``K = kh*kw`` taps in float64,
exact for any ``K * 2**14`` below ``2**53``.  Both refuse any ``K`` whose
worst case does not fit the declared ``ACC_BITS``-bit signed accumulator
(``K * 2**14 >= 2**31``), so the int64 results never carry more.  float is
how numpy reaches BLAS (integer ``matmul`` does not), not an approximation;
the float operators :func:`conv` / :func:`depthwise` that ``float_ref`` uses
stay float64 and unchunked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QuantizationError
from repro.quant.fixed_point import ACC_BITS, DATA_BITS, saturating_shift

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

#: Longest dot product whose worst case fits the signed accumulator.
MAX_DOT_LENGTH = (1 << (ACC_BITS - 1 - 2 * (DATA_BITS - 1))) - 1

#: Longest depth chunk one float32 GEMM sums: every partial sum of int8
#: products is then an integer of magnitude <= ``F32_DEPTH * 2**14 = 2**24``.
F32_DEPTH = 1024

#: Upper bound on one im2col patch matrix; whole-layer calls run in row
#: chunks of this size, a CALC stripe is always a single chunk.
SCRATCH_BYTES = 4 << 20


def patches(window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """Read-only ``(out_h, out_w, kh, kw, C)`` view of a padded HWC window.

    The strides are set directly on an ``ndarray`` over the window's buffer
    rather than through ``sliding_window_view`` or ``as_strided`` (whose
    per-call argument handling cost a third of a CALC); every index the
    view can form lies inside ``window`` because the output extent is
    derived here from the window's own shape.  A window that is not
    C-contiguous is copied first; every window the simulator gathers
    already is.
    """
    (kh, kw), (sh, sw) = kernel, stride
    height, width, channels = window.shape
    if not (0 < kh <= height and 0 < kw <= width and sh > 0 and sw > 0):
        raise QuantizationError(
            f"kernel {kernel} / stride {stride} does not fit a {height}x{width} window"
        )
    window = np.ascontiguousarray(window)
    row, col, chan = window.strides
    view = np.ndarray(
        ((height - kh) // sh + 1, (width - kw) // sw + 1, kh, kw, channels),
        window.dtype,
        buffer=window,
        strides=(row * sh, col * sw, row, col, chan),
    )
    view.flags.writeable = False
    return view


def tap_stack(window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """One ``(out_h, out_w, C)`` map per kernel tap, stacked on a new axis 0
    (a copy): what a pool reduces over."""
    taps = patches(window, kernel, stride)
    out_h, out_w, _, _, channels = taps.shape
    return taps.transpose(2, 3, 0, 1, 4).reshape(-1, out_h, out_w, channels)


def _gemm(
    window: np.ndarray,
    weights: np.ndarray,
    stride: tuple[int, int],
    dtype: DTypeLike,
    acc_dtype: DTypeLike,
    depth_chunk: int | None = None,
) -> np.ndarray:
    """Accumulations of ``weights`` (kh, kw, cin, cout) over ``window`` in
    ``acc_dtype``: a ``dtype`` im2col GEMM per row chunk, and within it per
    depth chunk of at most ``depth_chunk`` terms (default: the whole depth)."""
    kh, kw, cin, cout = weights.shape
    taps = patches(window, (kh, kw), stride)
    out_h, out_w = taps.shape[:2]
    depth = kh * kw * cin
    chunk = min(depth_chunk or depth, depth)
    matrix = weights.astype(dtype, order="C").reshape(depth, cout)
    acc = np.empty((out_h, out_w, cout), dtype=acc_dtype)
    step = max(1, SCRATCH_BYTES // (matrix.itemsize * out_w * depth))
    for row in range(0, out_h, step):
        # The cast is the im2col copy: one pass from the strided view.
        cols = taps[row : row + step].astype(dtype, order="C").reshape(-1, depth)
        out = acc[row : row + step].reshape(-1, cout)
        for k in range(0, depth, chunk):
            lhs, rhs = cols[:, k : k + chunk], matrix[k : k + chunk]
            if k:
                np.add(out, lhs @ rhs, out=out, casting="unsafe")
            elif out.dtype == lhs.dtype:
                np.matmul(lhs, rhs, out=out)  # float: straight into the result
            else:
                out[...] = lhs @ rhs
    return acc


def conv(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    """``float64`` accumulations of ``weights`` (kh, kw, cin, cout) over ``window``."""
    return _gemm(window, weights, stride, np.float64, np.float64)


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
    return _gemm(window, weights, stride, np.float32, np.int64, F32_DEPTH)


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
    broadcasts over the last axis.  The arithmetic is
    :func:`~repro.quant.fixed_point.saturating_shift`'s.
    """
    return saturating_shift(acc, shift, bias, relu)
