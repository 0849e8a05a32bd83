"""Lowering: network graph -> layer configs -> original ISA.

This is the "original compiler" stage of the paper's Fig. 1(c): it translates
the network topology plus quantization information into the original
(non-interruptible) LOAD/CALC/SAVE sequence.  The virtual-instruction pass
(:mod:`repro.compiler.vi_pass`) then decorates that sequence.

The product is the word array itself, not objects: each layer's tiling plan
is emitted as int64 :data:`~repro.isa.encoding.COLUMN_DTYPE` blocks — one
CalcBlob template per distinct group, one stripe block per distinct
``(out_rows, sections)``, copied per stripe with ``row0`` patched — and
:func:`~repro.isa.encoding.pack_words` range-checks and narrows each
layer's rows once.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compiler.allocator import NetworkLayout
from repro.compiler.layer_config import LayerConfig
from repro.compiler.tiling import GroupPlan, LayerPlan, StripePlan, plan_layer
from repro.compiler.weights import DEFAULT_SHIFT, LayerQuantization
from repro.errors import CompileError
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.isa.encoding import COLUMN_DTYPE, WORD_DTYPE, column_rows, pack_words
from repro.isa.instructions import (
    FLAG_BIAS,
    FLAG_LAST_SAVE_OF_LAYER,
    FLAG_OPERAND_B,
    FLAG_RELU,
)
from repro.isa.opcodes import Opcode
from repro.nn.graph import NetworkGraph
from repro.nn.layers import (
    Add,
    Conv2d,
    DepthwiseConv2d,
    FullyConnected,
    GlobalPool,
    Input,
    Pool2d,
)


def build_layer_configs(
    graph: NetworkGraph,
    layout: NetworkLayout,
    quantization: dict[str, LayerQuantization],
) -> list[LayerConfig]:
    """Assign layer ids and translate each graph layer to a LayerConfig."""
    configs: list[LayerConfig] = []
    for layer in graph.layers:
        if isinstance(layer, Input):
            continue
        layer_id = len(configs)
        (in_shape, *rest) = graph.input_shapes_of(layer)
        out_shape = graph.shapes[layer.name]
        input_region = layout.feature_regions[layer.inputs[0]]
        output_region = layout.feature_regions[layer.name]
        shift = quantization[layer.name].shift if layer.name in quantization else DEFAULT_SHIFT
        common: dict[str, Any] = dict(
            layer_id=layer_id,
            name=layer.name,
            in_shape=in_shape,
            out_shape=out_shape,
            input_region=input_region,
            output_region=output_region,
        )
        if isinstance(layer, Conv2d):
            weight_region, bias_region = layout.parameter_regions[layer.name]
            configs.append(
                LayerConfig(
                    kind="conv",
                    kernel=layer.kernel,
                    stride=layer.stride,
                    padding=layer.padding,
                    relu=layer.relu,
                    bias=layer.bias,
                    shift=shift,
                    weight_region=weight_region,
                    bias_region=bias_region,
                    **common,
                )
            )
        elif isinstance(layer, DepthwiseConv2d):
            weight_region, bias_region = layout.parameter_regions[layer.name]
            configs.append(
                LayerConfig(
                    kind="depthwise",
                    kernel=layer.kernel,
                    stride=layer.stride,
                    padding=layer.padding,
                    relu=layer.relu,
                    bias=layer.bias,
                    shift=shift,
                    weight_region=weight_region,
                    bias_region=bias_region,
                    **common,
                )
            )
        elif isinstance(layer, FullyConnected):
            # FC == convolution whose kernel is the full input extent.
            weight_region, bias_region = layout.parameter_regions[layer.name]
            configs.append(
                LayerConfig(
                    kind="conv",
                    kernel=(in_shape.height, in_shape.width),
                    stride=(1, 1),
                    padding=(0, 0),
                    relu=layer.relu,
                    bias=layer.bias,
                    shift=shift,
                    weight_region=weight_region,
                    bias_region=bias_region,
                    **common,
                )
            )
        elif isinstance(layer, Pool2d):
            configs.append(
                LayerConfig(
                    kind="pool",
                    kernel=layer.kernel,
                    stride=layer.stride,
                    padding=layer.padding,
                    mode=layer.mode,
                    **common,
                )
            )
        elif isinstance(layer, Add):
            (second_shape,) = rest
            configs.append(
                LayerConfig(
                    kind="add",
                    relu=layer.relu,
                    in2_shape=second_shape,
                    input2_region=layout.feature_regions[layer.inputs[1]],
                    **common,
                )
            )
        elif isinstance(layer, GlobalPool):
            configs.append(
                LayerConfig(kind="global", mode=layer.mode, gem_p=layer.p, **common)
            )
        else:
            raise CompileError(f"layer {layer.name!r}: no lowering for {layer.kind}")
    return configs


def lower_network(
    config: AcceleratorConfig,
    layer_configs: list[LayerConfig],
    layout: NetworkLayout,
) -> np.ndarray:
    """Emit the original-ISA word array for the whole network."""
    if not layer_configs:
        raise CompileError("network lowered to an empty instruction stream")
    # Planned and packed layer by layer, so the tiling plan and the int64
    # columns of only one layer exist at a time; every value is still
    # range-checked exactly once.
    blocks = [
        pack_words(_lower_layer(config, layer, plan_layer(config, layer), layout))
        for layer in layer_configs
    ]
    return np.concatenate([block.view(np.uint8) for block in blocks]).view(WORD_DTYPE)


def _join(blocks: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` of column blocks through their flat int64 view:
    on structured arrays it promotes the dtype field by field, per block."""
    return np.concatenate([block.view(np.int64) for block in blocks]).view(COLUMN_DTYPE)


def _lower_layer(
    config: AcceleratorConfig,
    layer: LayerConfig,
    plan: LayerPlan,
    layout: NetworkLayout,
) -> np.ndarray:
    ddr = layout.ddr
    width = layer.in_shape.width
    # LOAD_D row(s) bringing a tile's input rows on chip: one per operand.
    loads = column_rows(1, Opcode.LOAD_D, ddr_addr=ddr.region(layer.input_region).base)
    if layer.kind == "add":
        assert layer.input2_region is not None  # LayerConfig refuses an add without one
        second = ddr.region(layer.input2_region).base
        loads = _join([loads, column_rows(1, Opcode.LOAD_D, ddr_addr=second, flags=FLAG_OPERAND_B)])
    blobs: dict[tuple[int, Any], np.ndarray] = {}  # by group shape, see _stripe_block
    stripes: dict[tuple[int, Any], np.ndarray] = {}  # by (out_rows, sections)
    emitted: list[np.ndarray] = []
    for tile in plan.tiles:
        tile_loads = loads.copy()
        tile_loads["length"] = tile.in_rows * width * tile.in_chs
        tile_loads["row0"], tile_loads["rows"] = tile.in_row0, tile.in_rows
        tile_loads["ch0"], tile_loads["chs"] = tile.in_ch0, tile.in_chs
        emitted.append(tile_loads)
        for stripe in tile.stripes:
            key = (stripe.out_rows, stripe.sections)
            if key not in stripes:
                stripes[key] = _stripe_block(config, layer, stripe, blobs, ddr)
            block = stripes[key].copy()
            block["row0"] = stripe.out_row0
            emitted.append(block)
    rows = _join(emitted)
    rows["layer_id"] = layer.layer_id
    rows["flags"][-1] = FLAG_LAST_SAVE_OF_LAYER  # a stripe block ends on its SAVE
    return rows


def _stripe_block(
    config: AcceleratorConfig,
    layer: LayerConfig,
    stripe: StripePlan,
    blobs: dict[tuple[int, Any], np.ndarray],
    ddr: Ddr,
) -> np.ndarray:
    """Every CalcBlob and SAVE of one stripe, ``row0`` left for the caller."""
    output_base = ddr.region(layer.output_region).base
    emitted: list[np.ndarray] = []
    ch0: list[int] = []
    for section in stripe.sections:
        for group in section.groups:
            # One template per distinct group shape, emitted at channel 0.
            shape = (group.chs, group.weight_chunks)
            if shape not in blobs:
                blobs[shape] = _blob_block(config, layer, group, ddr)
            emitted.append(blobs[shape])
            ch0.append(group.ch0)
        emitted.append(
            column_rows(
                1,
                Opcode.SAVE,
                ddr_addr=output_base,
                length=stripe.out_rows * layer.out_shape.width * section.chs,
                chs=section.chs,
            )
        )
        ch0.append(section.ch0)
    rows = _join(emitted)
    rows["rows"] = stripe.out_rows
    rows["ch0"] = np.repeat(ch0, [len(block) for block in emitted])
    if layer.kind != "conv":  # a blob's input window is the group's own channels
        rows["in_ch0"] = np.where(rows["opcode"] == Opcode.SAVE, 0, rows["ch0"])
    return rows


def _blob_block(
    config: AcceleratorConfig, layer: LayerConfig, group: GroupPlan, ddr: Ddr
) -> np.ndarray:
    """LOAD_W + CALC_I*/CALC_F for one CalcBlob, its ``ch0`` left for the caller."""
    chs = group.chs
    if layer.kind not in ("conv", "depthwise"):
        # pool / add / global: one CALC_F over the group's own channels.
        relu = FLAG_RELU if (layer.kind == "add" and layer.relu) else 0
        return column_rows(1, Opcode.CALC_F, chs=chs, in_chs=chs, flags=relu)

    kh, kw = layer.kernel
    assert layer.weight_region is not None  # LayerConfig refuses these kinds without one
    weight_base = ddr.region(layer.weight_region).base
    bias_bytes = 4 * chs if layer.bias else 0
    if layer.kind == "depthwise":
        emitted = [
            column_rows(1, Opcode.LOAD_W, ddr_addr=weight_base, length=kh * kw * chs + bias_bytes),
            column_rows(1, Opcode.CALC_I),
        ]
    else:
        emitted = []
        for index, (chunk0, chunk_len) in enumerate(group.weight_chunks):
            weight_bytes = kh * kw * chunk_len * chs + (bias_bytes if index == 0 else 0)
            emitted.append(
                column_rows(
                    1,
                    Opcode.LOAD_W,
                    ddr_addr=weight_base,
                    length=weight_bytes,
                    in_ch0=chunk0,
                    in_chs=chunk_len,
                )
            )
            starts = np.arange(chunk0, chunk0 + chunk_len, config.para_in)
            steps = np.minimum(config.para_in, chunk0 + chunk_len - starts)
            emitted.append(column_rows(len(starts), Opcode.CALC_I, in_ch0=starts, in_chs=steps))
    rows = _join(emitted)
    rows["chs"] = chs
    if layer.kind == "depthwise":
        rows["in_chs"] = chs
    # The blob's last CALC finalizes: requantize, bias, ReLU.
    rows["opcode"][-1] = Opcode.CALC_F
    rows["shift"][-1] = layer.shift
    rows["flags"][-1] = (FLAG_RELU if layer.relu else 0) | (FLAG_BIAS if layer.bias else 0)
    return rows
