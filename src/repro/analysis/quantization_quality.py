"""Per-layer quantization quality: int8 pipeline vs float reference.

The Angel-Eye flow validates its 8-bit quantization by comparing quantized
activations against the float model layer by layer.  This report runs both
models on the same input and scores each layer's signal-to-quantization-
noise ratio (SQNR, dB) — where SQNR collapses, the layer needs a different
format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.reference import golden_inference
from repro.compiler.compile import CompiledNetwork
from repro.compiler.weights import ACTIVATION_FRAC_BITS
from repro.quant.float_ref import float_inference
from repro.tables import format_table


@dataclass(frozen=True)
class LayerQuality:
    """Quantization fidelity of one layer's output."""

    name: str
    kind: str
    sqnr_db: float
    max_abs_error: float
    saturated_fraction: float


@dataclass(frozen=True)
class QuantizationReport:
    network: str
    layers: list[LayerQuality]

    def worst_layer(self) -> LayerQuality:
        return min(self.layers, key=lambda layer: layer.sqnr_db)

    def mean_sqnr_db(self) -> float:
        return float(np.mean([layer.sqnr_db for layer in self.layers]))

    def format(self) -> str:
        rows = [
            [
                layer.name,
                layer.kind,
                f"{layer.sqnr_db:.1f} dB",
                f"{layer.max_abs_error:.4f}",
                f"{layer.saturated_fraction * 100:.2f}%",
            ]
            for layer in self.layers
        ]
        return format_table(
            ["layer", "kind", "SQNR", "max |error|", "saturated"],
            rows,
            title=(
                f"quantization quality of {self.network}: "
                f"mean SQNR {self.mean_sqnr_db():.1f} dB, "
                f"worst layer {self.worst_layer().name!r}"
            ),
        )


def quantization_report(
    compiled: CompiledNetwork, input_map: np.ndarray
) -> QuantizationReport:
    """Run int8 (golden) and float models; score every layer."""
    quantized = golden_inference(compiled, input_map)
    real = float_inference(compiled, input_map)
    scale = 2.0**-ACTIVATION_FRAC_BITS

    layers = []
    for cfg in compiled.layer_configs:
        int8_values = quantized[cfg.name].astype(np.float64) * scale
        float_values = real[cfg.name]
        error = int8_values - float_values
        signal_power = float(np.mean(float_values**2))
        noise_power = float(np.mean(error**2))
        if noise_power == 0.0:
            sqnr = np.inf
        elif signal_power == 0.0:
            sqnr = -np.inf
        else:
            sqnr = 10.0 * np.log10(signal_power / noise_power)
        saturated = float(
            np.mean(np.abs(quantized[cfg.name].astype(np.int64)) >= 127)
        )
        layers.append(
            LayerQuality(
                name=cfg.name,
                kind=cfg.kind,
                sqnr_db=float(sqnr),
                max_abs_error=float(np.max(np.abs(error))),
                saturated_fraction=saturated,
            )
        )
    return QuantizationReport(network=compiled.graph.name, layers=layers)
