"""Floating-point reference inference (the pre-quantization model).

The Angel-Eye deployment flow quantizes a trained float model; judging that
quantization needs the float model's outputs.  This module evaluates a
compiled network's layers in float64, using the *dequantized* weights (the
real values the int8 codes represent), so the int8 pipeline can be scored
against its own ideal — per-layer signal-to-noise ratios.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError
from repro.quant import kernels
from repro.quant.fixed_point import ACTIVATION_FRAC_BITS
from repro.quant.qops import pad_hw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork
    from repro.compiler.layer_config import LayerConfig


def float_inference(
    compiled: CompiledNetwork, input_map: np.ndarray
) -> dict[str, np.ndarray]:
    """Evaluate every layer in float; returns real-valued activations.

    ``input_map`` is the int8 feature map fed to the accelerator; its real
    value is ``codes * 2**-ACTIVATION_FRAC_BITS``.
    """
    input_map = np.asarray(input_map, dtype=np.int8)
    scale = 2.0**-ACTIVATION_FRAC_BITS
    ddr = compiled.layout.ddr
    outputs: dict[str, np.ndarray] = {
        compiled.graph.input_layer.name: input_map.astype(np.float64) * scale
    }
    by_name = {cfg.name: cfg for cfg in compiled.layer_configs}

    for layer in compiled.graph.layers[1:]:
        cfg = by_name[layer.name]
        sources = [outputs[src] for src in layer.inputs]
        if cfg.kind in ("conv", "depthwise") and cfg.weight_region is not None:
            quant = compiled.quantization.get(cfg.name)
            if quant is None:
                raise ExecutionError(
                    f"layer {cfg.name!r} has no quantization entry; compile with "
                    f"weights='random'"
                )
            weight_scale = quant.weight_format.scale
            weights = ddr.region(cfg.weight_region).array.astype(np.float64) * weight_scale
            bias_scale = 2.0 ** -(ACTIVATION_FRAC_BITS + quant.weight_format.frac_bits)
            bias = (
                ddr.region(cfg.bias_region).array.astype(np.float64) * bias_scale
                if cfg.bias and cfg.bias_region is not None
                else None
            )
            op = kernels.conv if cfg.kind == "conv" else kernels.depthwise
            result = op(pad_hw(sources[0], cfg.padding), weights, cfg.stride)
            if bias is not None:
                result += bias
            if cfg.relu:
                result = np.maximum(result, 0.0)
        elif cfg.kind == "pool":
            result = _float_pool(sources[0], cfg)
        elif cfg.kind == "add":
            result = sources[0] + sources[1]
            if cfg.relu:
                result = np.maximum(result, 0.0)
        elif cfg.kind == "global":
            result = _float_global(sources[0], cfg)
        else:  # pragma: no cover
            raise ExecutionError(f"no float op for kind {cfg.kind!r}")
        outputs[layer.name] = result
    return outputs


def _float_pool(data: np.ndarray, cfg: LayerConfig) -> np.ndarray:
    pad_value = -np.inf if cfg.mode == "max" else 0.0
    stack = kernels.tap_stack(pad_hw(data, cfg.padding, pad_value), cfg.kernel, cfg.stride)
    pooled: np.ndarray = stack.max(axis=0) if cfg.mode == "max" else stack.mean(axis=0)
    return pooled


def _float_global(data: np.ndarray, cfg: LayerConfig) -> np.ndarray:
    if cfg.mode == "max":
        pooled: np.ndarray = data.max(axis=(0, 1), keepdims=True)
    elif cfg.mode == "avg":
        pooled = data.mean(axis=(0, 1), keepdims=True)
    else:
        mean = np.mean(np.power(np.maximum(data, 1e-6), cfg.gem_p), axis=(0, 1), keepdims=True)
        pooled = np.power(mean, 1.0 / cfg.gem_p)
    return pooled
