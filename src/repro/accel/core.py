"""The accelerator core: executes original-ISA instructions.

The core models the Angel-Eye-style datapath the IAU feeds: on-chip data /
weight / output buffers, a MAC array, and DMA to DDR.  It runs in two modes:

* **functional** — every CALC computes real int8 arithmetic on numpy arrays
  loaded from / stored to the DDR regions, so results can be compared
  bit-exactly against the golden layer reference (including across
  interrupts);
* **timing-only** — arithmetic is skipped but *all* buffer-state bookkeeping
  and coverage checks still run, so an incorrect interrupt recovery is caught
  even in the fast mode used for the large ResNet-101 experiments.

Cycle accounting follows :mod:`repro.hw.timing`.  The core knows nothing
about tasks or interrupts; it executes whatever the IAU hands it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel import functional as fn
from repro.compiler.layer_config import LayerConfig
from repro.errors import ExecutionError
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.hw.timing import calc_cycles, transfer_cycles
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.obs.events import EventKind
from repro.state import Stateful


@dataclass
class DataTile:
    """Input feature-map rows resident in the data buffer (one operand slot)."""

    layer_id: int
    row0: int
    rows: int
    ch0: int
    chs: int
    nbytes: int
    array: np.ndarray | None


@dataclass
class WeightTile:
    """One weight chunk resident in the weight buffer."""

    layer_id: int
    ch0: int
    chs: int
    in_ch0: int
    in_chs: int
    nbytes: int
    array: np.ndarray | None


@dataclass
class Accumulator:
    """Partial sums of the in-flight CalcBlob (CALC_I chain)."""

    layer_id: int
    row0: int
    rows: int
    ch0: int
    chs: int
    next_in_ch0: int
    array: np.ndarray | None


@dataclass
class OutputGroup:
    """Finalized results of one CalcBlob awaiting SAVE."""

    ch0: int
    chs: int
    nbytes: int
    array: np.ndarray | None


@dataclass
class OutputSection:
    """Finalized groups of the current stripe section."""

    layer_id: int
    row0: int
    rows: int
    groups: list[OutputGroup] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(group.nbytes for group in self.groups)


@dataclass
class CoreStats:
    """Aggregate execution counters."""

    instructions: int = 0
    cycles: int = 0
    load_cycles: int = 0
    calc_cycles: int = 0
    save_cycles: int = 0
    bytes_loaded: int = 0
    bytes_saved: int = 0


class AcceleratorCore(Stateful):
    """Executes original-ISA instructions against DDR and on-chip buffers."""

    #: Every on-chip buffer + the counters.  Unlike the CPU-like
    #: :meth:`snapshot` (which aliases live tiles to model a hardware
    #: spill), a captured state is a *deep* copy.
    STATE = ("data_tiles", "weight_tile", "acc", "out", "stats")

    def __init__(
        self,
        config: AcceleratorConfig,
        ddr: Ddr,
        *,
        obs: ObsConfig | None = None,
        bus: EventBus | None = None,
    ):
        self.config = config
        self.ddr = ddr
        # A bare core defaults to functional execution (the bit-exact mode);
        # harnesses pass an explicit ObsConfig to opt into timing-only.
        self.obs = obs if obs is not None else ObsConfig(functional=True)
        self.functional = self.obs.functional
        self.bus = bus
        self.data_tiles: dict[int, DataTile] = {}
        self.weight_tile: WeightTile | None = None
        self.acc: Accumulator | None = None
        self.out: OutputSection | None = None
        self.stats = CoreStats()

    def _emit_burst(
        self, instruction: Instruction, direction: str, cycles: int, region: str
    ) -> None:
        """Report one DMA transfer on the bus (stamped at the bus clock)."""
        self.bus.emit(
            EventKind.DDR_BURST,
            layer_id=instruction.layer_id,
            duration=cycles,
            direction=direction,
            opcode=instruction.opcode.name,
            bytes=instruction.length,
            region=region,
        )

    # -- context switching support -------------------------------------------

    def snapshot(self):
        """Capture all on-chip state (the CPU-like interrupt's backup)."""
        return (
            dict(self.data_tiles),
            self.weight_tile,
            self.acc,
            self.out,
        )

    def restore(self, state) -> None:
        self.data_tiles, self.weight_tile, self.acc, self.out = state
        self.data_tiles = dict(self.data_tiles)

    def invalidate(self) -> None:
        """Drop all on-chip state (what a task switch does to the loser)."""
        self.data_tiles = {}
        self.weight_tile = None
        self.acc = None
        self.out = None

    @property
    def occupied_bytes(self) -> int:
        total = sum(tile.nbytes for tile in self.data_tiles.values())
        if self.weight_tile is not None:
            total += self.weight_tile.nbytes
        if self.out is not None:
            total += self.out.nbytes
        return total

    # -- execution ---------------------------------------------------------------

    def retire_batch(
        self,
        aggregates: dict,
        data_tiles: dict[int, DataTile],
        weight_tile: WeightTile | None,
    ) -> None:
        """Advance the core past a pre-validated instruction stretch.

        The IAU's horizon-batched fast path (timing-only, provably
        uninterruptible) retires many instructions at once: ``aggregates``
        carries the summed :class:`CoreStats` deltas, and the buffer
        bookkeeping jumps to the precomputed clean-boundary state (no
        accumulator or un-saved output section in flight there).
        """
        stats = self.stats
        stats.instructions += aggregates["instructions"]
        stats.cycles += aggregates["cycles"]
        stats.load_cycles += aggregates["load_cycles"]
        stats.calc_cycles += aggregates["calc_cycles"]
        stats.save_cycles += aggregates["save_cycles"]
        stats.bytes_loaded += aggregates["bytes_loaded"]
        stats.bytes_saved += aggregates["bytes_saved"]
        self.data_tiles = data_tiles
        self.weight_tile = weight_tile
        self.acc = None
        self.out = None

    def execute(self, instruction: Instruction, layer: LayerConfig) -> int:
        """Run one original-ISA instruction; returns its cycle count."""
        opcode = instruction.opcode
        if opcode == Opcode.LOAD_D:
            cycles = self._load_d(instruction, layer)
        elif opcode == Opcode.LOAD_W:
            cycles = self._load_w(instruction, layer)
        elif opcode in (Opcode.CALC_I, Opcode.CALC_F):
            cycles = self._calc(instruction, layer)
        elif opcode == Opcode.SAVE:
            cycles = self._save(instruction, layer)
        else:
            raise ExecutionError(
                f"accelerator received non-original opcode {opcode.name}; "
                f"virtual instructions must be consumed by the IAU"
            )
        self.stats.instructions += 1
        self.stats.cycles += cycles
        return cycles

    # -- loads -------------------------------------------------------------------

    def _load_d(self, instruction: Instruction, layer: LayerConfig) -> int:
        slot = 1 if instruction.operand_b else 0
        # A load for a new layer implicitly retires the previous layer's tiles.
        stale = [
            key
            for key, tile in self.data_tiles.items()
            if tile.layer_id != instruction.layer_id
        ]
        for key in stale:
            del self.data_tiles[key]

        other_bytes = sum(
            tile.nbytes for key, tile in self.data_tiles.items() if key != slot
        )
        if other_bytes + instruction.length > self.config.data_buffer_bytes:
            raise ExecutionError(
                f"layer {layer.name!r}: LOAD_D of {instruction.length} bytes "
                f"overflows the data buffer ({other_bytes} already resident)"
            )
        fault_cycles = 0
        if self.ddr.faults is not None:
            # ECC runs before the burst data leaves DDR.
            source_region = (
                layer.input2_region if instruction.operand_b else layer.input_region
            )
            fault_cycles = self.ddr.burst_faults(source_region, "load")
        array = None
        if self.functional:
            region_name = layer.input2_region if instruction.operand_b else layer.input_region
            source = self.ddr.region(region_name).array
            array = source[
                instruction.row0 : instruction.row0 + instruction.rows,
                :,
                instruction.ch0 : instruction.ch0 + instruction.chs,
            ].copy()
        if self.ddr.faults is not None:
            # Read-disturb lands after the in-flight data left DDR intact.
            self.ddr.read_disturb(
                layer.input2_region if instruction.operand_b else layer.input_region
            )
        self.data_tiles[slot] = DataTile(
            layer_id=instruction.layer_id,
            row0=instruction.row0,
            rows=instruction.rows,
            ch0=instruction.ch0,
            chs=instruction.chs,
            nbytes=instruction.length,
            array=array,
        )
        cycles = transfer_cycles(self.config, instruction.length) + fault_cycles
        self.stats.load_cycles += cycles
        self.stats.bytes_loaded += instruction.length
        if self.bus is not None:
            region = layer.input2_region if instruction.operand_b else layer.input_region
            self._emit_burst(instruction, "load", cycles, region)
        return cycles

    def _load_w(self, instruction: Instruction, layer: LayerConfig) -> int:
        if instruction.length > self.config.weight_buffer_bytes:
            raise ExecutionError(
                f"layer {layer.name!r}: LOAD_W of {instruction.length} bytes "
                f"overflows the weight buffer"
            )
        fault_cycles = 0
        if self.ddr.faults is not None:
            fault_cycles = self.ddr.burst_faults(layer.weight_region, "load")
        array = None
        if self.functional:
            # The tile must not alias DDR (matching _load_d): a host-side
            # weight update — or, with faults armed, an in-place ECC
            # correction or a fresh flip — must not reach an in-flight tile.
            weights = self.ddr.region(layer.weight_region).array
            if layer.kind == "depthwise":
                array = weights[
                    :, :, instruction.ch0 : instruction.ch0 + instruction.chs
                ].copy()
            else:
                array = weights[
                    :,
                    :,
                    instruction.in_ch0 : instruction.in_ch0 + instruction.in_chs,
                    instruction.ch0 : instruction.ch0 + instruction.chs,
                ].copy()
        if self.ddr.faults is not None:
            self.ddr.read_disturb(layer.weight_region)
        self.weight_tile = WeightTile(
            layer_id=instruction.layer_id,
            ch0=instruction.ch0,
            chs=instruction.chs,
            in_ch0=instruction.in_ch0,
            in_chs=instruction.in_chs,
            nbytes=instruction.length,
            array=array,
        )
        cycles = transfer_cycles(self.config, instruction.length) + fault_cycles
        self.stats.load_cycles += cycles
        self.stats.bytes_loaded += instruction.length
        if self.bus is not None:
            self._emit_burst(instruction, "load", cycles, layer.weight_region)
        return cycles

    # -- calc ------------------------------------------------------------------

    def _calc(self, instruction: Instruction, layer: LayerConfig) -> int:
        tile = self._require_tile(instruction, layer, slot=0)
        if layer.kind == "conv":
            result_cycles = self._calc_conv(instruction, layer, tile)
        elif layer.kind == "depthwise":
            result_cycles = self._calc_depthwise(instruction, layer, tile)
        elif layer.kind == "pool":
            result_cycles = self._calc_pool(instruction, layer, tile)
        elif layer.kind == "add":
            result_cycles = self._calc_add(instruction, layer, tile)
        elif layer.kind == "global":
            result_cycles = self._calc_global(instruction, layer, tile)
        else:  # pragma: no cover - LayerConfig validates kinds
            raise ExecutionError(f"unknown layer kind {layer.kind!r}")
        self.stats.calc_cycles += result_cycles
        return result_cycles

    def _require_tile(self, instruction: Instruction, layer: LayerConfig, slot: int) -> DataTile:
        tile = self.data_tiles.get(slot)
        if tile is None or tile.layer_id != instruction.layer_id:
            raise ExecutionError(
                f"layer {layer.name!r}: CALC with no input tile resident "
                f"(slot {slot}) — missing LOAD_D / interrupt recovery"
            )
        in_row0, in_rows = layer.input_rows_for(instruction.row0, instruction.rows)
        if in_row0 < tile.row0 or in_row0 + in_rows > tile.row0 + tile.rows:
            raise ExecutionError(
                f"layer {layer.name!r}: CALC needs input rows [{in_row0}, "
                f"{in_row0 + in_rows}) but tile holds [{tile.row0}, {tile.row0 + tile.rows})"
            )
        lo, hi = instruction.in_ch0, instruction.in_ch0 + instruction.in_chs
        if lo < tile.ch0 or hi > tile.ch0 + tile.chs:
            raise ExecutionError(
                f"layer {layer.name!r}: CALC needs input channels [{lo}, {hi}) but "
                f"tile holds [{tile.ch0}, {tile.ch0 + tile.chs})"
            )
        return tile

    def _require_weights(self, instruction: Instruction, layer: LayerConfig) -> WeightTile:
        weights = self.weight_tile
        if (
            weights is None
            or weights.layer_id != instruction.layer_id
            or weights.ch0 != instruction.ch0
            or weights.chs != instruction.chs
        ):
            raise ExecutionError(
                f"layer {layer.name!r}: CALC group [{instruction.ch0}, "
                f"{instruction.ch0 + instruction.chs}) has no matching weights resident"
            )
        if layer.kind == "conv":
            lo, hi = instruction.in_ch0, instruction.in_ch0 + instruction.in_chs
            if lo < weights.in_ch0 or hi > weights.in_ch0 + weights.in_chs:
                raise ExecutionError(
                    f"layer {layer.name!r}: CALC input channels [{lo}, {hi}) not in "
                    f"resident weight chunk [{weights.in_ch0}, "
                    f"{weights.in_ch0 + weights.in_chs})"
                )
        return weights

    def _calc_conv(self, instruction: Instruction, layer: LayerConfig, tile: DataTile) -> int:
        weights = self._require_weights(instruction, layer)
        is_final = instruction.opcode == Opcode.CALC_F
        blob_key = (
            instruction.layer_id,
            instruction.row0,
            instruction.rows,
            instruction.ch0,
            instruction.chs,
        )
        if instruction.in_ch0 == 0:
            acc_array = None
            if self.functional:
                acc_array = np.zeros(
                    (instruction.rows, layer.out_shape.width, instruction.chs),
                    dtype=np.int64,
                )
            self.acc = Accumulator(*blob_key, next_in_ch0=0, array=acc_array)
        acc = self.acc
        if (
            acc is None
            or (acc.layer_id, acc.row0, acc.rows, acc.ch0, acc.chs) != blob_key
            or acc.next_in_ch0 != instruction.in_ch0
        ):
            raise ExecutionError(
                f"layer {layer.name!r}: CALC at in_ch {instruction.in_ch0} does not "
                f"continue the in-flight accumulator — blob interrupted mid-chain?"
            )
        if self.functional:
            channel_lo = instruction.in_ch0 - tile.ch0
            window = fn.gather_input_window(
                tile.array[:, :, channel_lo : channel_lo + instruction.in_chs],
                tile.row0,
                layer,
                instruction.row0,
                instruction.rows,
            )
            weight_lo = instruction.in_ch0 - weights.in_ch0
            fn.conv_step(
                acc.array,
                window,
                weights.array[:, :, weight_lo : weight_lo + instruction.in_chs, :],
                layer,
            )
        acc.next_in_ch0 = instruction.in_ch0 + instruction.in_chs
        if is_final:
            result = None
            if self.functional:
                bias = None
                if instruction.bias and layer.bias_region is not None:
                    bias = self.ddr.region(layer.bias_region).array[
                        instruction.ch0 : instruction.ch0 + instruction.chs
                    ]
                result = fn.finalize(acc.array, bias, instruction.shift, instruction.relu)
            self._append_output(instruction, layer, result)
            self.acc = None
        return calc_cycles(self.config, layer.out_shape.width, layer.kernel)

    def _calc_depthwise(self, instruction: Instruction, layer: LayerConfig, tile: DataTile) -> int:
        weights = self._require_weights(instruction, layer)
        result = None
        if self.functional:
            channel_lo = instruction.in_ch0 - tile.ch0
            window = fn.gather_input_window(
                tile.array[:, :, channel_lo : channel_lo + instruction.in_chs],
                tile.row0,
                layer,
                instruction.row0,
                instruction.rows,
            )
            acc = fn.depthwise_step(window, weights.array, layer)
            bias = None
            if instruction.bias and layer.bias_region is not None:
                bias = self.ddr.region(layer.bias_region).array[
                    instruction.ch0 : instruction.ch0 + instruction.chs
                ]
            result = fn.finalize(acc, bias, instruction.shift, instruction.relu)
        self._append_output(instruction, layer, result)
        return calc_cycles(self.config, layer.out_shape.width, layer.kernel)

    def _calc_pool(self, instruction: Instruction, layer: LayerConfig, tile: DataTile) -> int:
        result = None
        if self.functional:
            channel_lo = instruction.in_ch0 - tile.ch0
            window = fn.gather_input_window(
                tile.array[:, :, channel_lo : channel_lo + instruction.in_chs],
                tile.row0,
                layer,
                instruction.row0,
                instruction.rows,
                pad_value=fn.pool_pad_value(layer),
            )
            result = fn.pool_step(window, layer)
        self._append_output(instruction, layer, result)
        return calc_cycles(self.config, layer.out_shape.width, layer.kernel)

    def _calc_add(self, instruction: Instruction, layer: LayerConfig, tile: DataTile) -> int:
        second = self.data_tiles.get(1)
        if second is None or second.layer_id != instruction.layer_id:
            raise ExecutionError(
                f"layer {layer.name!r}: residual CALC with no second operand resident"
            )
        result = None
        if self.functional:
            row_lo = instruction.row0 - tile.row0
            ch_lo = instruction.in_ch0 - tile.ch0
            lhs = tile.array[
                row_lo : row_lo + instruction.rows,
                :,
                ch_lo : ch_lo + instruction.in_chs,
            ]
            row_lo2 = instruction.row0 - second.row0
            ch_lo2 = instruction.in_ch0 - second.ch0
            rhs = second.array[
                row_lo2 : row_lo2 + instruction.rows,
                :,
                ch_lo2 : ch_lo2 + instruction.in_chs,
            ]
            result = fn.eltwise_step(lhs, rhs, instruction.relu)
        self._append_output(instruction, layer, result)
        return calc_cycles(self.config, layer.out_shape.width, (1, 1))

    def _calc_global(self, instruction: Instruction, layer: LayerConfig, tile: DataTile) -> int:
        result = None
        if self.functional:
            ch_lo = instruction.in_ch0 - tile.ch0
            result = fn.global_step(
                tile.array[:, :, ch_lo : ch_lo + instruction.in_chs], layer
            )
        self._append_output(instruction, layer, result)
        return layer.in_shape.height * layer.in_shape.width + self.config.calc_overhead_cycles

    def _append_output(
        self, instruction: Instruction, layer: LayerConfig, result: np.ndarray | None
    ) -> None:
        key = (instruction.layer_id, instruction.row0, instruction.rows)
        if self.out is None or (self.out.layer_id, self.out.row0, self.out.rows) != key:
            self.out = OutputSection(
                layer_id=instruction.layer_id,
                row0=instruction.row0,
                rows=instruction.rows,
            )
        nbytes = instruction.rows * layer.out_shape.width * instruction.chs
        if self.out.nbytes + nbytes > self.config.output_buffer_bytes:
            raise ExecutionError(
                f"layer {layer.name!r}: finalized results overflow the output buffer "
                f"({self.out.nbytes} + {nbytes} bytes)"
            )
        self.out.groups.append(
            OutputGroup(ch0=instruction.ch0, chs=instruction.chs, nbytes=nbytes, array=result)
        )

    # -- save --------------------------------------------------------------------

    def _save(self, instruction: Instruction, layer: LayerConfig) -> int:
        if instruction.chs == 0:
            return 0  # fully pre-saved by a VIR_SAVE; the IAU normally drops these
        section = self.out
        key = (instruction.layer_id, instruction.row0, instruction.rows)
        if section is None or (section.layer_id, section.row0, section.rows) != key:
            raise ExecutionError(
                f"layer {layer.name!r}: SAVE rows [{instruction.row0}, "
                f"{instruction.row0 + instruction.rows}) but no matching finalized "
                f"section is resident"
            )
        lo, hi = instruction.ch0, instruction.ch0 + instruction.chs
        chosen = sorted(
            (group for group in section.groups if lo <= group.ch0 < hi),
            key=lambda group: group.ch0,
        )
        cursor = lo
        for group in chosen:
            if group.ch0 != cursor:
                raise ExecutionError(
                    f"layer {layer.name!r}: SAVE range [{lo}, {hi}) has a gap at "
                    f"channel {cursor}"
                )
            cursor = group.ch0 + group.chs
        if cursor != hi:
            raise ExecutionError(
                f"layer {layer.name!r}: SAVE range [{lo}, {hi}) only finalized up to "
                f"channel {cursor}"
            )
        if self.functional:
            target = self.ddr.region(layer.output_region).array
            for group in chosen:
                target[
                    instruction.row0 : instruction.row0 + instruction.rows,
                    :,
                    group.ch0 : group.ch0 + group.chs,
                ] = group.array
        for group in chosen:
            section.groups.remove(group)
        if not section.groups:
            self.out = None
        cycles = transfer_cycles(self.config, instruction.length)
        if self.ddr.faults is not None:
            # The burst rewrote the ECC words under the saved slice; only
            # then may the write disturb a cell.
            self.ddr.note_write(
                layer.output_region, instruction.row0, instruction.rows, lo, hi
            )
            cycles += self.ddr.burst_faults(layer.output_region, "save")
        self.stats.save_cycles += cycles
        self.stats.bytes_saved += instruction.length
        if self.bus is not None:
            self._emit_burst(instruction, "save", cycles, layer.output_region)
        return cycles
