"""Tap-loop oracle: the int64 sliding-window loops ``repro.quant.kernels`` replaced.

Nothing here imports from ``repro.quant``.  One pass of ``for dy .. for dx``
over strided slices, integer arithmetic throughout, and an epilogue spelled
with floor division instead of a shift — so agreement with the kernel is
agreement between two independent derivations, not a kernel compared with
itself.  Signatures mirror ``kernels.int8_conv / int8_depthwise / int8_pool /
requantize`` so the oracle can be patched in for them.
"""

from __future__ import annotations

import numpy as np


def taps(window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]):
    """Yield ``(dy, dx, strided (out_h, out_w, C) slice)`` for every kernel tap."""
    (kh, kw), (sh, sw) = kernel, stride
    out_h = (window.shape[0] - kh) // sh + 1
    out_w = (window.shape[1] - kw) // sw + 1
    for dy in range(kh):
        for dx in range(kw):
            yield dy, dx, window[dy : dy + out_h * sh : sh, dx : dx + out_w * sw : sw, :]


def int8_conv(window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]) -> np.ndarray:
    w64 = weights.astype(np.int64)
    acc = 0
    for dy, dx, sub in taps(window, weights.shape[:2], stride):
        acc = acc + np.tensordot(sub.astype(np.int64), w64[dy, dx], axes=([2], [0]))
    return acc


def int8_depthwise(
    window: np.ndarray, weights: np.ndarray, stride: tuple[int, int]
) -> np.ndarray:
    w64 = weights.astype(np.int64)
    acc = 0
    for dy, dx, sub in taps(window, weights.shape[:2], stride):
        acc = acc + sub.astype(np.int64) * w64[dy, dx]
    return acc


def int8_pool(
    window: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int], mode: str
) -> np.ndarray:
    stacked = np.stack([sub for _, _, sub in taps(window, kernel, stride)]).astype(np.int64)
    if mode == "max":
        return stacked.max(axis=0).astype(np.int8)
    return np.floor(stacked.sum(axis=0) / (kernel[0] * kernel[1])).astype(np.int8)


def requantize(acc: np.ndarray, bias: np.ndarray | None, shift: int, relu: bool) -> np.ndarray:
    acc = np.asarray(acc, dtype=np.int64)
    if bias is not None:
        acc = acc + np.asarray(bias, dtype=np.int64)
    rounded = (acc + (2**shift) // 2) // 2**shift  # round half up, floor division
    return np.clip(rounded, 0 if relu else -128, 127).astype(np.int8)


def pad(data: np.ndarray, padding: tuple[int, int], value: int = 0) -> np.ndarray:
    ph, pw = padding
    out = np.full(
        (data.shape[0] + 2 * ph, data.shape[1] + 2 * pw, data.shape[2]), value, dtype=data.dtype
    )
    out[ph : ph + data.shape[0], pw : pw + data.shape[1]] = data
    return out
