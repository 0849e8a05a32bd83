"""The accelerator core: executes original-ISA instructions.

The core models the Angel-Eye-style datapath the IAU feeds: on-chip data /
weight / output buffers, a MAC array, and DMA to DDR.  The buffers' rules —
what must be resident for a CALC, what fits, how a CalcBlob's accumulator
chain advances, what a SAVE may drain — are written once, in
:class:`BufferMachine`; :class:`AcceleratorCore` is that machine with every
violation raised as an :class:`~repro.errors.ExecutionError`, and the static
verifier's :class:`repro.verify.bufferflow.BufferSim` is the same machine
with every violation recorded as a ``BUF`` diagnostic.  The core runs in two
modes:

* **functional** — every CALC computes real int8 arithmetic on numpy arrays
  loaded from / stored to the DDR regions, so results can be compared
  bit-exactly against the golden layer reference (including across
  interrupts); a batched stretch (:meth:`AcceleratorCore.retire_batch`)
  computes what its SAVEs drain one layer at a time instead;
* **timing-only** — arithmetic is skipped but *all* buffer-state bookkeeping
  and coverage checks still run, so an incorrect interrupt recovery is caught
  even in the fast mode used for the large ResNet-101 experiments.

Either way the machine advances first and the payload arithmetic, if any,
follows on state the rules already vouched for.  Cycle accounting follows
:mod:`repro.hw.timing`.  The core knows nothing about tasks or interrupts; it
executes whatever the IAU hands it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from repro.accel import functional as fn
from repro.compiler.layer_config import LayerConfig
from repro.errors import ExecutionError, IncaError
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.hw.timing import layer_calc_instruction_cycles, transfer_cycles
from repro.isa.instructions import FLAG_BIAS, FLAG_RELU, Instruction
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

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.layer_id, self.row0, self.rows)

    def channel_span(self) -> tuple[int, int]:
        """``[lo, hi)`` hull of the channels still awaiting a SAVE."""
        return (
            min(group.ch0 for group in self.groups),
            max(group.ch0 + group.chs for group in self.groups),
        )


#: What a CPU-like interrupt spills (:meth:`AcceleratorCore.snapshot`).
CoreSnapshot = tuple[
    dict[int, DataTile], WeightTile | None, Accumulator | None, OutputSection | None
]


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


#: The :class:`CoreStats` counters in field order: the stats delta of a
#: batched stretch (:meth:`AcceleratorCore.retire_batch`) is one int each.
STAT_NAMES: tuple[str, ...] = tuple(stat.name for stat in fields(CoreStats))

#: A resident tile without its payload: its fields in order.
DataSpec = tuple[int, int, int, int, int, int]  # layer, row0, rows, ch0, chs, nbytes
WeightSpec = tuple[int, int, int, int, int, int]  # layer, ch0, chs, in_ch0, in_chs, nbytes
#: What is resident at a clean boundary: ``(slot, spec)`` per data tile,
#: and the weight tile's spec.
TileSpecs = tuple[tuple[tuple[int, DataSpec], ...], WeightSpec | None]


def resident_tiles(specs: TileSpecs) -> tuple[dict[int, DataTile], WeightTile | None]:
    """Fresh tile descriptors (no payload) built from their specs."""
    data_specs, weight_spec = specs
    data_tiles = {slot: DataTile(*spec, array=None) for slot, spec in data_specs}
    return data_tiles, None if weight_spec is None else WeightTile(*weight_spec, array=None)


class BoundaryTiles(NamedTuple):
    """What is resident at a clean boundary: the specs, and descriptors
    built from them once and shared by every timing-only core that
    retires a stretch ending there (:meth:`AcceleratorCore.retire_batch`).

    Sharing is safe because a timing-only core never writes a descriptor:
    a load installs a new one, into the core's own copy of the dict.  A
    functional core fills ``array`` fields, so it builds its own from
    ``specs``.
    """

    specs: TileSpecs
    data_tiles: dict[int, DataTile]
    weight_tile: WeightTile | None


def require_whole_finals(
    words: np.ndarray, layer_config: Callable[[int], LayerConfig]
) -> None:
    """The precondition of a functional :meth:`AcceleratorCore.retire_batch`:
    every ``CALC_F`` in the stretch's ``words`` closes a chain of its
    layer's full input depth (a conv chain ends at the layer's last input
    channel, any other kind reads its own channel group) and carries the
    layer's own shift / ReLU / bias flags.  Lowering emits nothing else; a
    program that does is refused here rather than computed differently
    from ``step()``."""
    finals = words[words["opcode"] == Opcode.CALC_F]
    for layer_id in np.unique(finals["layer_id"]).tolist():
        layer = layer_config(layer_id)
        rows = finals[finals["layer_id"] == layer_id]
        end = rows["in_ch0"].astype(np.int64) + rows["in_chs"]
        if layer.kind == "conv":
            whole = end == layer.in_channels
        else:
            whole = (rows["in_ch0"] == rows["ch0"]) & (rows["in_chs"] == rows["chs"])
        flags = rows["flags"] & (FLAG_RELU | FLAG_BIAS)
        if layer.kind in ("conv", "depthwise"):
            expected = (FLAG_RELU if layer.relu else 0) | (FLAG_BIAS if layer.bias else 0)
            whole &= (flags == expected) & (rows["shift"] == layer.shift)
        elif layer.kind == "add":
            whole &= (flags & FLAG_RELU) == (FLAG_RELU if layer.relu else 0)
        if not whole.all():
            bad = rows[np.flatnonzero(~whole)[0]]
            row0, ch0 = int(bad["row0"]), int(bad["ch0"])
            raise ExecutionError(
                f"layer {layer.name!r}: a batched stretch needs every CALC_F to close "
                f"the layer's full input depth with its shift / ReLU / bias; the "
                f"CALC_F of rows [{row0}, {row0 + int(bad['rows'])}) channels "
                f"[{ch0}, {ch0 + int(bad['chs'])}) does not"
            )


class BufferMachine:
    """The on-chip buffer state and every rule over it (BUF001-BUF007).

    One transition per real opcode — :meth:`_install_data` (LOAD_D),
    :meth:`_install_weights` (LOAD_W), :meth:`_advance_calc` (CALC_I/F),
    :meth:`_drain_output` (SAVE) — checks residency, capacity, accumulator
    chain, coverage and drain rules, then advances the descriptors (payload
    ``array`` fields stay ``None``; an executor fills them in afterwards).
    A broken rule goes to :meth:`_violation`; if that returns, the state is
    patched to a best-effort value and the machine carries on, so a
    recording sink surfaces every violation of a run.  A raising sink never
    reaches the patch-up code.
    """

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self.data_tiles: dict[int, DataTile] = {}
        self.weight_tile: WeightTile | None = None
        self.acc: Accumulator | None = None
        self.out: OutputSection | None = None

    def _violation(
        self, code: str, layer: LayerConfig, message: str, hint: str | None = None
    ) -> None:
        """Sink for one broken rule (``code`` is its ``BUF`` rule ID)."""
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop all on-chip state (what a task switch does to the loser)."""
        self.data_tiles = {}
        self.weight_tile = None
        self.acc = None
        self.out = None

    # -- loads -------------------------------------------------------------------

    def _install_data(self, instruction: Instruction, layer: LayerConfig) -> DataTile:
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
            self._violation(
                "BUF003",
                layer,
                f"LOAD_D of {instruction.length} bytes overflows the "
                f"{self.config.data_buffer_bytes}-byte data buffer "
                f"({other_bytes} bytes already resident)",
                "shrink the tile (more stripes) or compile for a larger data buffer",
            )
        tile = self.data_tiles[slot] = DataTile(
            layer_id=instruction.layer_id,
            row0=instruction.row0,
            rows=instruction.rows,
            ch0=instruction.ch0,
            chs=instruction.chs,
            nbytes=instruction.length,
            array=None,
        )
        return tile

    def _install_weights(self, instruction: Instruction, layer: LayerConfig) -> WeightTile:
        if instruction.length > self.config.weight_buffer_bytes:
            self._violation(
                "BUF004",
                layer,
                f"LOAD_W of {instruction.length} bytes exceeds the "
                f"{self.config.weight_buffer_bytes}-byte weight buffer",
                "split the chunk over more input channels or output groups",
            )
        tile = self.weight_tile = WeightTile(
            layer_id=instruction.layer_id,
            ch0=instruction.ch0,
            chs=instruction.chs,
            in_ch0=instruction.in_ch0,
            in_chs=instruction.in_chs,
            nbytes=instruction.length,
            array=None,
        )
        return tile

    # -- calc ------------------------------------------------------------------

    def _advance_calc(self, instruction: Instruction, layer: LayerConfig) -> OutputGroup | None:
        """One CALC: returns the group it finalized (``None`` mid-chain)."""
        kind = layer.kind
        self._require_tile(instruction, layer, 0)
        if kind == "add":
            self._require_tile(instruction, layer, 1)
        if kind != "conv":
            if kind == "depthwise":
                self._require_weights(instruction, layer)
            # depthwise / pool / add / global finalize in a single CALC.
            return self._append_output(instruction, layer)
        self._require_weights(instruction, layer)
        blob_key = (
            instruction.layer_id,
            instruction.row0,
            instruction.rows,
            instruction.ch0,
            instruction.chs,
        )
        next_in_ch0 = instruction.in_ch0 + instruction.in_chs
        if instruction.in_ch0 == 0:
            self.acc = Accumulator(*blob_key, next_in_ch0=0, array=None)
        acc = self.acc
        if (
            acc is None
            or (acc.layer_id, acc.row0, acc.rows, acc.ch0, acc.chs) != blob_key
            or acc.next_in_ch0 != instruction.in_ch0
        ):
            self._violation(
                "BUF001",
                layer,
                f"CALC at in_ch {instruction.in_ch0} does not continue the "
                f"in-flight accumulator chain",
                "a CalcBlob's CALCs must walk in_ch0 contiguously from 0",
            )
            # Recover: pretend the chain restarted here.
            self.acc = Accumulator(*blob_key, next_in_ch0=next_in_ch0, array=None)
        else:
            acc.next_in_ch0 = next_in_ch0
        if instruction.opcode != Opcode.CALC_F:
            return None
        self.acc = None
        return self._append_output(instruction, layer)

    def _require_tile(self, instruction: Instruction, layer: LayerConfig, slot: int) -> None:
        tile = self.data_tiles.get(slot)
        operand = "second operand" if slot else "input tile"
        if tile is None or tile.layer_id != instruction.layer_id:
            self._violation(
                "BUF001",
                layer,
                f"CALC with no {operand} resident (slot {slot}) — missing LOAD_D",
                "every CALC consumes a tile a preceding LOAD_D of the same "
                "layer installed",
            )
            return
        try:
            # The add second operand is indexed like the output (1:1 rows),
            # which is what ``input_rows_for`` answers for an add layer.
            in_row0, in_rows = layer.input_rows_for(instruction.row0, instruction.rows)
        except IncaError as exc:
            self._violation("BUF001", layer, f"CALC output rows are unsatisfiable: {exc}")
            return
        if in_row0 < tile.row0 or in_row0 + in_rows > tile.row0 + tile.rows:
            self._violation(
                "BUF001",
                layer,
                f"CALC needs input rows [{in_row0}, {in_row0 + in_rows}) but "
                f"{operand} holds [{tile.row0}, {tile.row0 + tile.rows})",
                "the LOAD_D must cover the halo rows of every stripe it serves",
            )
        lo, hi = instruction.in_ch0, instruction.in_ch0 + instruction.in_chs
        if lo < tile.ch0 or hi > tile.ch0 + tile.chs:
            self._violation(
                "BUF001",
                layer,
                f"CALC needs input channels [{lo}, {hi}) but {operand} holds "
                f"[{tile.ch0}, {tile.ch0 + tile.chs})",
            )

    def _require_weights(self, instruction: Instruction, layer: LayerConfig) -> None:
        weights = self.weight_tile
        if (
            weights is None
            or weights.layer_id != instruction.layer_id
            or weights.ch0 != instruction.ch0
            or weights.chs != instruction.chs
        ):
            self._violation(
                "BUF002",
                layer,
                f"CALC group [{instruction.ch0}, {instruction.ch0 + instruction.chs}) "
                f"has no matching weights resident",
                "every CalcBlob begins with the LOAD_W of its own chunk",
            )
            return
        if layer.kind == "conv":
            lo, hi = instruction.in_ch0, instruction.in_ch0 + instruction.in_chs
            if lo < weights.in_ch0 or hi > weights.in_ch0 + weights.in_chs:
                self._violation(
                    "BUF002",
                    layer,
                    f"CALC input channels [{lo}, {hi}) not in resident weight "
                    f"chunk [{weights.in_ch0}, {weights.in_ch0 + weights.in_chs})",
                )

    def _append_output(self, instruction: Instruction, layer: LayerConfig) -> OutputGroup:
        key = (instruction.layer_id, instruction.row0, instruction.rows)
        section = self.out
        if section is None or (section.layer_id, section.row0, section.rows) != key:
            if section is not None and section.groups:
                lo, hi = section.channel_span()
                self._violation(
                    "BUF007",
                    layer,
                    f"starting output section {key} overwrites unsaved section "
                    f"{section.key} (channels [{lo}, {hi}) were finalized but "
                    f"never saved)",
                    "drain the previous section with a SAVE before finalizing "
                    "results for a new one",
                )
            section = self.out = OutputSection(*key)
        nbytes = instruction.rows * layer.out_shape.width * instruction.chs
        resident = section.nbytes
        if resident + nbytes > self.config.output_buffer_bytes:
            self._violation(
                "BUF005",
                layer,
                f"finalized results overflow the "
                f"{self.config.output_buffer_bytes}-byte output buffer "
                f"({resident} + {nbytes} bytes)",
                "drain groups with SAVEs more often (max_groups_per_save)",
            )
        group = OutputGroup(ch0=instruction.ch0, chs=instruction.chs, nbytes=nbytes, array=None)
        section.groups.append(group)
        return group

    # -- save --------------------------------------------------------------------

    def _drain_output(self, instruction: Instruction, layer: LayerConfig) -> list[OutputGroup]:
        """One SAVE: returns the groups it drained, in channel order."""
        if instruction.chs == 0:
            return []  # fully pre-saved by a VIR_SAVE; retires for free
        section = self.out
        if section is None or (section.layer_id, section.row0, section.rows) != (
            instruction.layer_id,
            instruction.row0,
            instruction.rows,
        ):
            self._violation(
                "BUF006",
                layer,
                f"SAVE rows [{instruction.row0}, "
                f"{instruction.row0 + instruction.rows}) but no matching "
                f"finalized section is resident",
                "a SAVE drains the section the preceding CALC_Fs finalized",
            )
            return []
        lo, hi = instruction.ch0, instruction.ch0 + instruction.chs
        chosen = sorted(
            (group for group in section.groups if lo <= group.ch0 < hi),
            key=lambda group: group.ch0,
        )
        cursor = lo
        for group in chosen:
            if group.ch0 != cursor:
                self._violation(
                    "BUF006", layer, f"SAVE range [{lo}, {hi}) has a gap at channel {cursor}"
                )
                break
            cursor = group.ch0 + group.chs
        else:
            if cursor != hi:
                self._violation(
                    "BUF006",
                    layer,
                    f"SAVE range [{lo}, {hi}) only finalized up to channel {cursor}",
                    "the covering CALC_Fs must finalize every channel the SAVE drains",
                )
        # Recover: drain whatever overlapped.
        for group in chosen:
            section.groups.remove(group)
        if not section.groups:
            self.out = None
        return chosen


class AcceleratorCore(BufferMachine, Stateful):
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
    ) -> None:
        super().__init__(config)
        self.ddr = ddr
        # A bare core defaults to functional execution (the bit-exact mode);
        # harnesses pass an explicit ObsConfig to opt into timing-only.
        self.obs = obs if obs is not None else ObsConfig(functional=True)
        self.functional = self.obs.functional
        self.bus = bus
        self.stats = CoreStats()

    def _violation(
        self, code: str, layer: LayerConfig, message: str, hint: str | None = None
    ) -> None:
        detail = f" ({hint})" if hint else ""
        raise ExecutionError(f"layer {layer.name!r}: {code} {message}{detail}")

    def _emit_burst(
        self, instruction: Instruction, direction: str, cycles: int, region: str
    ) -> None:
        """Report one DMA transfer on the bus (stamped at the bus clock)."""
        assert self.bus is not None
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

    def snapshot(self) -> CoreSnapshot:
        """Capture all on-chip state (the CPU-like interrupt's backup)."""
        return (dict(self.data_tiles), self.weight_tile, self.acc, self.out)

    def restore(self, state: CoreSnapshot) -> None:
        data_tiles, self.weight_tile, self.acc, self.out = state
        self.data_tiles = dict(data_tiles)

    # -- execution ---------------------------------------------------------------

    def retire_batch(
        self,
        stats_delta: tuple[int, ...],
        tiles: BoundaryTiles,
        words: np.ndarray,
        layer_config: Callable[[int], LayerConfig],
    ) -> None:
        """Advance the core past a pre-validated instruction stretch.

        The IAU's horizon-batched fast path (provably uninterruptible)
        retires many instructions at once: ``stats_delta`` carries the summed
        :class:`CoreStats` deltas (one per :data:`STAT_NAMES` entry), and the
        buffer bookkeeping jumps to the precomputed clean-boundary state (no
        accumulator or un-saved output section in flight there), whose
        resident ``tiles`` a timing-only core installs as they are shared
        (a copy of the dict, the same descriptors).  A functional core
        builds its own descriptors from the specs and then does the
        stretch's arithmetic: ``words`` (the stretch's program words) name
        what each SAVE drains, computed layer by layer from DDR
        (:meth:`_retire_saves`), and the resident tiles are read from DDR as
        their loads would have read them — except a tile of a region with a
        pending ECC flip: a load of that region bounds the stretch, so the
        tile was loaded before it, ahead of the flip DDR now holds, and the
        resident payload is what that load read.
        """
        instructions, cycles, load, calc, save, loaded, saved = stats_delta
        stats = self.stats
        stats.instructions += instructions
        stats.cycles += cycles
        stats.load_cycles += load
        stats.calc_cycles += calc
        stats.save_cycles += save
        stats.bytes_loaded += loaded
        stats.bytes_saved += saved
        self.acc = None
        self.out = None
        if not self.functional:
            self.data_tiles = dict(tiles.data_tiles)
            self.weight_tile = tiles.weight_tile
            return
        resident, resident_weights = self.data_tiles, self.weight_tile
        data_tiles, weight_tile = resident_tiles(tiles.specs)
        self.data_tiles, self.weight_tile = data_tiles, weight_tile
        self._retire_saves(words, layer_config)
        flipped = self.ddr.flipped_regions()
        for slot, tile in data_tiles.items():
            layer = layer_config(tile.layer_id)
            region = layer.input2_region if slot else layer.input_region
            assert region is not None  # a LOAD_D of the second operand read it
            if not (region in flipped and _carry(resident.get(slot), tile)):
                self._fill_data(tile, region)
        if weight_tile is not None:
            layer = layer_config(weight_tile.layer_id)
            if not (layer.weight_region in flipped and _carry(resident_weights, weight_tile)):
                self._fill_weights(weight_tile, layer)

    def _retire_saves(
        self, words: np.ndarray, layer_config: Callable[[int], LayerConfig]
    ) -> None:
        """Write what a stretch's SAVEs drain, one run of same-layer SAVEs at
        a time and in program order: a layer reads what earlier layers of
        the stretch wrote, so each run is written before the next is
        computed.

        Exact because nothing in the stretch writes a region a load in it
        (or a tile resident at its start) read: layers write only their own
        output regions (``LayerConfig`` refuses an in-place layer), tasks
        own disjoint regions, and no fault fires or is pending.  A chain
        begun before the stretch is recomputed from the same DDR contents.
        """
        require_whole_finals(words, layer_config)
        saves = words[(words["opcode"] == Opcode.SAVE) & (words["chs"] != 0)]
        if not len(saves):
            return
        layer_ids = saves["layer_id"]
        cuts = np.flatnonzero(layer_ids[1:] != layer_ids[:-1]) + 1
        for run in np.split(saves, cuts):
            layer = layer_config(int(run["layer_id"][0]))
            row0, ch0 = run["row0"].astype(np.int64), run["ch0"].astype(np.int64)
            row1, ch1 = row0 + run["rows"], ch0 + run["chs"]
            lo, hi = int(row0.min()), int(row1.max())
            c_lo, c_hi = int(ch0.min()), int(ch1.max())
            result = fn.layer_rows(self.ddr, layer, lo, hi - lo, c_lo, c_hi - c_lo)
            target = self.ddr.region(layer.output_region).array
            for r0, r1, c0, c1 in zip(row0.tolist(), row1.tolist(), ch0.tolist(), ch1.tolist()):
                target[r0:r1, :, c0:c1] = result[r0 - lo : r1 - lo, :, c0 - c_lo : c1 - c_lo]

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

    def _load(self, instruction: Instruction, region: str, fault_cycles: int) -> int:
        """Cycle accounting shared by both loads."""
        cycles = transfer_cycles(self.config, instruction.length) + fault_cycles
        self.stats.load_cycles += cycles
        self.stats.bytes_loaded += instruction.length
        if self.bus is not None:
            self._emit_burst(instruction, "load", cycles, region)
        return cycles

    def _load_d(self, instruction: Instruction, layer: LayerConfig) -> int:
        tile = self._install_data(instruction, layer)
        region = layer.input2_region if instruction.operand_b else layer.input_region
        if region is None:
            raise ExecutionError(f"layer {layer.name!r}: LOAD_D of a second operand it lacks")
        faults = self.ddr.faults is not None
        # ECC runs before the burst data leaves DDR.
        fault_cycles = self.ddr.burst_faults(region, "load") if faults else 0
        if self.functional:
            self._fill_data(tile, region)
        if faults:
            # Read-disturb lands after the in-flight data left DDR intact.
            self.ddr.read_disturb(region)
        return self._load(instruction, region, fault_cycles)

    def _load_w(self, instruction: Instruction, layer: LayerConfig) -> int:
        tile = self._install_weights(instruction, layer)
        region = layer.weight_region
        if region is None:
            raise ExecutionError(f"layer {layer.name!r}: LOAD_W but the layer has no weights")
        faults = self.ddr.faults is not None
        fault_cycles = self.ddr.burst_faults(region, "load") if faults else 0
        if self.functional:
            self._fill_weights(tile, layer)
        if faults:
            self.ddr.read_disturb(region)
        return self._load(instruction, region, fault_cycles)

    def _fill_data(self, tile: DataTile, region: str) -> None:
        """A data tile's payload: its rows and channels of ``region``."""
        tile.array = self.ddr.region(region).array[
            tile.row0 : tile.row0 + tile.rows, :, tile.ch0 : tile.ch0 + tile.chs
        ].copy()

    def _fill_weights(self, tile: WeightTile, layer: LayerConfig) -> None:
        """A weight tile's payload.  Like a data tile it must not alias DDR:
        a host-side weight update — or, with faults armed, an in-place ECC
        correction or a fresh flip — must not reach an in-flight tile."""
        assert layer.weight_region is not None
        weights = self.ddr.region(layer.weight_region).array
        outs = slice(tile.ch0, tile.ch0 + tile.chs)
        if layer.kind == "depthwise":
            tile.array = weights[:, :, outs].copy()
        else:
            ins = slice(tile.in_ch0, tile.in_ch0 + tile.in_chs)
            tile.array = weights[:, :, ins, outs].copy()

    def _calc(self, instruction: Instruction, layer: LayerConfig) -> int:
        chain = self.acc  # the partial sums a CALC with in_ch0 > 0 continues
        group = self._advance_calc(instruction, layer)
        if self.functional:
            result = self._compute(instruction, layer, chain)
            if group is not None:
                group.array = result
            elif self.acc is not None:
                self.acc.array = result
        cycles = layer_calc_instruction_cycles(self.config, layer)
        self.stats.calc_cycles += cycles
        return cycles

    def _compute(
        self, instruction: Instruction, layer: LayerConfig, chain: Accumulator | None
    ) -> np.ndarray:
        """Payload of one CALC the machine has already advanced past (every
        operand read here was vouched resident and covering): the finalized
        int8 results, or a conv chain's int64 partial sums before its CALC_F."""
        kind = layer.kind
        tile = self.data_tiles[0]
        assert tile.array is not None
        ch_lo = instruction.in_ch0 - tile.ch0
        channels = tile.array[:, :, ch_lo : ch_lo + instruction.in_chs]
        if kind == "global":
            return fn.global_step(channels, layer)
        if kind == "add":
            second = self.data_tiles[1]
            assert second.array is not None
            row_lo = instruction.row0 - tile.row0
            row_lo2 = instruction.row0 - second.row0
            ch_lo2 = instruction.in_ch0 - second.ch0
            return fn.eltwise_step(
                channels[row_lo : row_lo + instruction.rows],
                second.array[
                    row_lo2 : row_lo2 + instruction.rows,
                    :,
                    ch_lo2 : ch_lo2 + instruction.in_chs,
                ],
                instruction.relu,
            )
        window = fn.gather_input_window(
            channels,
            tile.row0,
            layer,
            instruction.row0,
            instruction.rows,
            pad_value=fn.pool_pad_value(layer) if kind == "pool" else 0,
        )
        if kind == "pool":
            return fn.pool_step(window, layer)
        weights = self.weight_tile
        assert weights is not None and weights.array is not None
        if kind == "depthwise":
            sums = fn.depthwise_step(window, weights.array, layer)
        else:
            if instruction.in_ch0 == 0:
                sums = np.zeros(
                    (instruction.rows, layer.out_shape.width, instruction.chs),
                    dtype=np.int64,
                )
            else:
                assert chain is not None and chain.array is not None
                sums = chain.array
            weight_lo = instruction.in_ch0 - weights.in_ch0
            fn.conv_step(
                sums,
                window,
                weights.array[:, :, weight_lo : weight_lo + instruction.in_chs, :],
                layer,
            )
            if instruction.opcode != Opcode.CALC_F:
                return sums
        bias = None
        if instruction.bias and layer.bias_region is not None:
            bias = self.ddr.region(layer.bias_region).array[
                instruction.ch0 : instruction.ch0 + instruction.chs
            ]
        return fn.finalize(sums, bias, instruction.shift, instruction.relu)

    def _save(self, instruction: Instruction, layer: LayerConfig) -> int:
        chosen = self._drain_output(instruction, layer)
        if not chosen:
            return 0  # chs == 0; the IAU normally drops these
        region = layer.output_region
        if self.functional:
            target = self.ddr.region(region).array
            for group in chosen:
                target[
                    instruction.row0 : instruction.row0 + instruction.rows,
                    :,
                    group.ch0 : group.ch0 + group.chs,
                ] = group.array
        cycles = transfer_cycles(self.config, instruction.length)
        if self.ddr.faults is not None:
            # The burst rewrote the ECC words under the saved slice; only
            # then may the write disturb a cell.
            self.ddr.note_write(
                region,
                instruction.row0,
                instruction.rows,
                instruction.ch0,
                instruction.chs,
            )
            cycles += self.ddr.burst_faults(region, "save")
        self.stats.save_cycles += cycles
        self.stats.bytes_saved += instruction.length
        if self.bus is not None:
            self._emit_burst(instruction, "save", cycles, region)
        return cycles


_Tile = TypeVar("_Tile", DataTile, WeightTile)


def _carry(resident: _Tile | None, tile: _Tile) -> bool:
    """Give ``tile`` the payload of the ``resident`` tile it describes, if
    the core holds one (after an invalidation it may not: then no later
    instruction reads the tile before reloading it)."""
    if resident is None or replace(resident, array=None) != tile:
        return False
    tile.array = resident.array
    return True
