"""8-bit fixed-point formats, Angel-Eye style.

Angel-Eye (the paper's host accelerator) uses 8-bit activations and weights
with a *per-tensor* binary point: a value ``v`` is stored as the signed
integer ``round(v * 2**frac_bits)`` clipped to ``[-128, 127]``.  Accumulators
are ``ACC_BITS`` = 32 bits wide — :mod:`repro.quant.kernels` refuses any dot
product whose worst case would not fit, so the int64 arrays the simulator
holds them in never carry more — and requantization between layers is a
single arithmetic shift, which is what makes interrupted/resumed execution
trivially bit-exact as long as the integer state is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

#: Storage width of activations and weights on the accelerator.
DATA_BITS = 8
INT8_MIN = -(2 ** (DATA_BITS - 1))
INT8_MAX = 2 ** (DATA_BITS - 1) - 1

#: Accumulator width inside the MAC array (enforced by repro.quant.kernels).
ACC_BITS = 32

#: Shared activation format across the deployment: Q3.4 (range +-7.94,
#: resolution 1/16).  Every feature map uses it, so a layer's requantization
#: shift equals its weight format's fractional bit count.
ACTIVATION_FRAC_BITS = 4


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed 8-bit fixed-point format with ``frac_bits`` fractional bits."""

    frac_bits: int

    def __post_init__(self) -> None:
        if not -16 <= self.frac_bits <= 16:
            raise QuantizationError(
                f"frac_bits out of supported range [-16, 16]: {self.frac_bits}"
            )

    @property
    def scale(self) -> float:
        """Real value of the least significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        return INT8_MAX * self.scale

    @property
    def min_value(self) -> float:
        return INT8_MIN * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Real -> int8 codes (round-to-nearest, saturating)."""
        codes = np.rint(np.asarray(values, dtype=np.float64) * 2.0**self.frac_bits)
        return np.clip(codes, INT8_MIN, INT8_MAX).astype(np.int8)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """int8 codes -> real values."""
        return np.asarray(codes, dtype=np.float64) * self.scale

    def quantization_error(self, values: np.ndarray) -> float:
        """RMS error of a quantize/dequantize round trip."""
        values = np.asarray(values, dtype=np.float64)
        round_trip = self.dequantize(self.quantize(values))
        return float(np.sqrt(np.mean((values - round_trip) ** 2)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{DATA_BITS - 1 - self.frac_bits}.{self.frac_bits}"


def requantize_shift(
    input_format: FixedPointFormat,
    weight_format: FixedPointFormat,
    output_format: FixedPointFormat,
) -> int:
    """Right-shift that converts a conv accumulator to the output format.

    A product of ``fi``- and ``fw``-fraction inputs carries ``fi + fw``
    fractional bits; moving to ``fo`` needs a shift by ``fi + fw - fo``.
    """
    shift = input_format.frac_bits + weight_format.frac_bits - output_format.frac_bits
    if shift < 0:
        raise QuantizationError(
            "output format has more precision than the accumulator carries "
            f"(shift would be {shift}); pick a smaller output frac_bits"
        )
    return shift


def saturating_shift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Round-half-up arithmetic right shift with int8 saturation.

    This is the exact datapath the simulator and the reference quantized ops
    share, so their results can be compared bit-for-bit.
    """
    acc = np.asarray(acc, dtype=np.int64)
    if shift > 0:
        acc = (acc + (1 << (shift - 1))) >> shift
    return np.clip(acc, INT8_MIN, INT8_MAX).astype(np.int8)
