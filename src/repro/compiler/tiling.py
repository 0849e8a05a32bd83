"""Tiling: split each layer into tiles, stripes, sections and CalcBlobs.

The schedule hierarchy mirrors the paper's Fig. "singlesave":

* **Tile** — a span of output rows whose *input* rows fit in the on-chip data
  buffer.  The tile's input is loaded once (``LOAD_D``) and shared by all the
  CalcBlobs below it ("input feature maps are loaded by one CalcBlob and
  shared across subsequent CalcBlobs").
* **Stripe** — ``Para_height`` output rows inside a tile, the spatial grain of
  one CALC instruction.
* **Section** — a run of consecutive output-channel groups within a stripe
  whose finalized results fit the output buffer; one ``SAVE`` drains a section.
* **CalcBlob** — one (stripe x output-channel group): ``ceil(Ch_in/Para_in)``
  CALC instructions, all `CALC_I` except the final `CALC_F` (paper §IV-A).

Weights for a blob may be split into input-channel chunks when a full
``K x K x Ch_in x Para_out`` slice exceeds the weight buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.layer_config import LayerConfig
from repro.errors import CompileError
from repro.hw.config import AcceleratorConfig
from repro.units import ceil_div


@dataclass(frozen=True)
class GroupPlan:
    """One CalcBlob: an output-channel group within a stripe."""

    ch0: int
    chs: int
    #: (in_ch0, in_chs) weight chunks; empty for weight-less layers.
    weight_chunks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SectionPlan:
    """Consecutive groups drained by a single SAVE."""

    ch0: int
    chs: int
    groups: tuple[GroupPlan, ...]


@dataclass(frozen=True)
class StripePlan:
    """Para_height output rows processed back to back."""

    out_row0: int
    out_rows: int
    sections: tuple[SectionPlan, ...]


@dataclass(frozen=True)
class TilePlan:
    """Output-row span whose input rows are resident on chip together."""

    out_row0: int
    out_rows: int
    in_row0: int
    in_rows: int
    #: Channel window of the input resident for this tile (all channels for
    #: conv/pool/add; a chunk for channel-tiled global pooling).
    in_ch0: int
    in_chs: int
    stripes: tuple[StripePlan, ...]


@dataclass(frozen=True)
class LayerPlan:
    """Complete schedule of one layer."""

    layer_id: int
    tiles: tuple[TilePlan, ...]

    def num_blobs(self) -> int:
        return sum(
            len(section.groups)
            for tile in self.tiles
            for stripe in tile.stripes
            for section in stripe.sections
        )

    def num_saves(self) -> int:
        return sum(len(stripe.sections) for tile in self.tiles for stripe in tile.stripes)


def plan_layer(config: AcceleratorConfig, layer: LayerConfig) -> LayerPlan:
    """Build the tile/stripe/section/blob schedule for ``layer``."""
    if layer.kind == "global":
        return _plan_global(config, layer)
    return _plan_spatial(config, layer)


# -- spatial layers (conv / depthwise / pool / add) ---------------------------


def _plan_spatial(config: AcceleratorConfig, layer: LayerConfig) -> LayerPlan:
    out_h = layer.out_shape.height
    bytes_per_input_row = layer.in_shape.width * layer.in_shape.channels
    if layer.kind == "add":
        # Both operands share the data buffer.
        bytes_per_input_row *= 2

    tiles: list[TilePlan] = []
    # A stripe's sections depend on its row count only: plan each count once,
    # over the one list of output-channel groups every stripe shares.
    sections: dict[int, tuple[SectionPlan, ...]] = {}
    groups: list[GroupPlan] = []
    row = 0
    while row < out_h:
        tile_rows = _max_tile_rows(config, layer, row, bytes_per_input_row)
        in_row0, in_rows = layer.input_rows_for(row, tile_rows)
        stripes = []
        for stripe_row0 in range(row, row + tile_rows, config.para_height):
            stripe_rows = min(config.para_height, row + tile_rows - stripe_row0)
            if stripe_rows not in sections:
                per_section = _groups_per_section(config, layer, stripe_rows)
                groups = groups or _plan_groups(config, layer)
                sections[stripe_rows] = _plan_sections(groups, per_section)
            stripes.append(StripePlan(stripe_row0, stripe_rows, sections[stripe_rows]))
        tiles.append(
            TilePlan(
                out_row0=row,
                out_rows=tile_rows,
                in_row0=in_row0,
                in_rows=in_rows,
                in_ch0=0,
                in_chs=layer.in_shape.channels,
                stripes=tuple(stripes),
            )
        )
        row += tile_rows
    return LayerPlan(layer_id=layer.layer_id, tiles=tuple(tiles))


def _max_tile_rows(
    config: AcceleratorConfig, layer: LayerConfig, out_row0: int, bytes_per_input_row: int
) -> int:
    """Largest stripe-aligned output-row count whose input span fits on chip."""
    remaining = layer.out_shape.height - out_row0
    cap = config.max_stripes_per_tile * config.para_height
    best = 0
    rows = config.para_height
    while rows <= min(remaining + config.para_height - 1, cap):
        candidate = min(rows, remaining)
        _, in_rows = layer.input_rows_for(out_row0, candidate)
        if in_rows * bytes_per_input_row > config.data_buffer_bytes:
            break
        best = candidate
        if candidate == remaining:
            break
        rows += config.para_height
    if best == 0:
        _, min_in_rows = layer.input_rows_for(out_row0, min(config.para_height, remaining))
        raise CompileError(
            f"layer {layer.name!r}: even one stripe needs "
            f"{min_in_rows * bytes_per_input_row} bytes of input, data buffer is "
            f"{config.data_buffer_bytes} — hardware too small for this layer"
        )
    return best


def _plan_groups(config: AcceleratorConfig, layer: LayerConfig) -> list[GroupPlan]:
    """The output-channel groups of one stripe, ``para_out`` channels each."""
    out_channels = layer.out_channels
    chunks: dict[int, tuple[tuple[int, int], ...]] = {}  # by group width: at most two
    groups = []
    for ch0 in range(0, out_channels, config.para_out):
        chs = min(config.para_out, out_channels - ch0)
        if chs not in chunks:
            chunks[chs] = _weight_chunks(config, layer, chs)
        groups.append(GroupPlan(ch0=ch0, chs=chs, weight_chunks=chunks[chs]))
    return groups


def _groups_per_section(config: AcceleratorConfig, layer: LayerConfig, out_rows: int) -> int:
    """How many groups of a stripe of ``out_rows`` rows one SAVE drains."""
    bytes_per_out_channel = out_rows * layer.out_shape.width
    if bytes_per_out_channel * min(config.para_out, layer.out_channels) > config.output_buffer_bytes:
        raise CompileError(
            f"layer {layer.name!r}: one output-channel group of a stripe "
            f"({bytes_per_out_channel * config.para_out} bytes) exceeds the output buffer"
        )
    groups_per_section = max(
        1, config.output_buffer_bytes // max(1, bytes_per_out_channel * config.para_out)
    )
    return min(groups_per_section, config.max_groups_per_save)


def _plan_sections(groups: list[GroupPlan], per_section: int) -> tuple[SectionPlan, ...]:
    """``groups`` cut into runs of ``per_section``, one SAVE each."""
    sections = []
    for start in range(0, len(groups), per_section):
        members = tuple(groups[start : start + per_section])
        ch0 = members[0].ch0
        chs = members[-1].ch0 + members[-1].chs - ch0
        sections.append(SectionPlan(ch0=ch0, chs=chs, groups=members))
    return tuple(sections)


def _weight_chunks(
    config: AcceleratorConfig, layer: LayerConfig, group_chs: int
) -> tuple[tuple[int, int], ...]:
    """Split a blob's input channels so each weight slice fits the buffer."""
    if layer.kind == "depthwise":
        # One filter per channel: the chunk *is* the group's channel window.
        return ((0, group_chs),)
    if not layer.has_weights:
        return ()
    kh, kw = layer.kernel
    in_channels = layer.in_channels
    bytes_per_in_channel = kh * kw * group_chs
    max_chunk = config.weight_buffer_bytes // max(1, bytes_per_in_channel)
    max_chunk = (max_chunk // config.para_in) * config.para_in
    if max_chunk <= 0:
        raise CompileError(
            f"layer {layer.name!r}: a {kh}x{kw}x{config.para_in}x{group_chs} weight "
            f"slice exceeds the {config.weight_buffer_bytes}-byte weight buffer"
        )
    chunks = []
    start = 0
    while start < in_channels:
        size = min(max_chunk, in_channels - start)
        chunks.append((start, size))
        start += size
    return tuple(chunks)


# -- global pooling ------------------------------------------------------------


def _plan_global(config: AcceleratorConfig, layer: LayerConfig) -> LayerPlan:
    """Global pooling: channels are independent, so tile over channels.

    Each tile loads an ``H x W x chunk`` slice and reduces it; the single
    output row is drained per section.
    """
    spatial_bytes = layer.in_shape.height * layer.in_shape.width
    max_channels = config.data_buffer_bytes // max(1, spatial_bytes)
    max_channels = (max_channels // config.para_out) * config.para_out
    if max_channels <= 0:
        raise CompileError(
            f"layer {layer.name!r}: a single-channel {layer.in_shape.height}x"
            f"{layer.in_shape.width} slice exceeds the data buffer"
        )

    tiles: list[TilePlan] = []
    channels = layer.in_shape.channels
    start = 0
    while start < channels:
        chunk = min(max_channels, channels - start)
        groups = tuple(
            GroupPlan(ch0=ch0, chs=min(config.para_out, start + chunk - ch0), weight_chunks=())
            for ch0 in range(start, start + chunk, config.para_out)
        )
        section = SectionPlan(ch0=start, chs=chunk, groups=groups)
        stripe = StripePlan(out_row0=0, out_rows=1, sections=(section,))
        tiles.append(
            TilePlan(
                out_row0=0,
                out_rows=1,
                in_row0=0,
                in_rows=layer.in_shape.height,
                in_ch0=start,
                in_chs=chunk,
                stripes=(stripe,),
            )
        )
        start += chunk
    return LayerPlan(layer_id=layer.layer_id, tiles=tuple(tiles))


def check_blob_count(config: AcceleratorConfig, layer: LayerConfig) -> int:
    """Expected CALC count of one blob (Eq. 1's Ch_in/Para_in factor)."""
    if layer.kind in ("conv",):
        return ceil_div(layer.in_channels, config.para_in)
    return 1
