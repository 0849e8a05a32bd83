"""The one replay of the uninterrupted path (:func:`replay_pass`), and the
checkpoint-coverage proof (CHK001-CHK004) made on it.

At every interrupt point the paper's guarantee is exact state transfer: the
VIR_SAVE must back up precisely the finalized-but-unsaved output resident at
that point, and the trailing recovery loads must restore precisely the
on-chip state the instructions after the point still consume.  This pass
*proves* that statically:

1. a :class:`~repro.verify.bufferflow.BufferSim` replays the uninterrupted
   path — the verifier's only walk through the buffer machine: its BUF
   findings go to the caller's report, and the
   :data:`~repro.verify.bufferflow.Replay` it leaves is what ``INT003`` holds
   ``ProgramMeta`` to — so at each virtual instruction its buffer state, the
   same :class:`~repro.accel.core.BufferMachine` the core executes on, is
   exactly what the IAU would find on a preemption there;
2. a forward liveness query determines which resident tiles / weights are
   still read before being redefined — only those must be restored;
3. the VIR_SAVE window is compared against the resident output section, the
   recovery-load pack against the live resident tiles, and the VIR_SAVE /
   SAVE pairing against the exact arithmetic of the IAU's expansion
   (:meth:`Instruction.materialized` + ``with_channel_range`` in
   :meth:`repro.iau.unit.Iau._preempt_at` and ``_rewrite_save``).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.accel.core import DataTile
from repro.compiler.layer_config import LayerConfig
from repro.hw.config import AcceleratorConfig
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.bufferflow import BufferSim, Replay
from repro.verify.diagnostics import Report, Severity

_PACK_OPS = (Opcode.VIR_LOAD_D, Opcode.VIR_LOAD_W)
_WEIGHTED_KINDS = ("conv", "depthwise")


class _Replay:
    def __init__(self, sim: BufferSim) -> None:
        self.sim = sim
        self.program = sim.program
        self.layers = sim.layers
        # CHK findings wait here until the walk ends, so that a program's
        # BUF findings precede them in the caller's report (``sim.report``).
        self.report = Report()
        self.paired_save = self._pair_saves()

    def _pair_saves(self) -> dict[int, int]:
        """VIR_SAVE index -> index of the next real SAVE with its save_id."""
        opcode, save_id = self.program.words["opcode"], self.program.words["save_id"]
        events = np.flatnonzero((opcode == Opcode.VIR_SAVE) | (opcode == Opcode.SAVE))
        pending: dict[int, list[int]] = {}
        paired: dict[int, int] = {}
        for index, code, sid in zip(
            events.tolist(), opcode[events].tolist(), save_id[events].tolist()
        ):
            if code == Opcode.VIR_SAVE:
                pending.setdefault(sid, []).append(index)
            else:
                for vir_index in pending.pop(sid, []):
                    paired[vir_index] = index
        return paired

    # -- driving -----------------------------------------------------------

    def run(self) -> Replay:
        sim = self.sim
        clean: Replay = {0: ({}, None)}
        resident = clean[0]
        consumed: set[int] = set()  # pack members already checked from their head
        for index, instruction in enumerate(self.program):
            if not instruction.is_virtual:
                sim.step(index, instruction)
                if instruction.opcode in (Opcode.LOAD_D, Opcode.LOAD_W):
                    resident = (dict(sim.data_tiles), sim.weight_tile)
            elif index in consumed:
                pass
            elif instruction.opcode == Opcode.VIR_SAVE:
                self._check_vir_save(index, instruction)
                pack = self._collect_pack(index + 1)
                consumed.update(idx for idx, _ in pack)
                self._check_pack(index, pack)
            elif instruction.opcode == Opcode.VIR_BARRIER:
                self._check_barrier(index, instruction)
            elif instruction.opcode in _PACK_OPS:
                pack = self._collect_pack(index)
                consumed.update(idx for idx, _ in pack)
                if instruction.is_switch_point:
                    self._check_no_loose_state(index)
                    self._check_pack(index, pack)
                else:
                    self.report.add(
                        "CHK002",
                        f"{instruction.opcode.name} pack is unreachable: no "
                        f"switch point enters it",
                        program=self.program.name,
                        index=index,
                        severity=Severity.WARNING,
                        hint="recovery loads are replayed from their pack head; "
                        "a pack without an entry point is dead code",
                    )
            if sim.acc is None and sim.out is None:
                clean[index + 1] = resident
        sim.finish(len(self.program) - 1)
        sim.report.extend(self.report)
        return clean

    def _collect_pack(self, start: int) -> list[tuple[int, Instruction]]:
        pack: list[tuple[int, Instruction]] = []
        for index in range(start, len(self.program)):
            instruction = self.program[index]
            if instruction.opcode not in _PACK_OPS:
                break
            pack.append((index, instruction))
        return pack

    # -- checks -------------------------------------------------------------

    def _check_vir_save(self, index: int, instruction: Instruction) -> None:
        if self.sim.acc is not None:
            self._live_acc(index, instruction)
        section = self.sim.out
        key = (instruction.layer_id, instruction.row0, instruction.rows)
        if section is None or section.key != key:
            resident = "none" if section is None else str(section.key)
            self.report.add(
                "CHK001",
                f"VIR_SAVE backs up section {key} but the resident finalized "
                f"section is {resident}",
                program=self.program.name,
                index=index,
                hint="a preemption here would store the wrong (or no) data; the "
                "VIR_SAVE must describe the section its CALC_Fs finalized",
            )
        else:
            groups = sorted(section.groups, key=lambda group: group.ch0)
            lo, hi = instruction.ch0, instruction.ch0 + instruction.chs
            cursor = lo
            exact = bool(groups) and groups[0].ch0 == lo
            for group in groups:
                if group.ch0 != cursor:
                    exact = False
                    break
                cursor = group.ch0 + group.chs
            if cursor != hi:
                exact = False
            if not exact:
                spans = ", ".join(
                    f"[{group.ch0}, {group.ch0 + group.chs})" for group in groups
                ) or "none"
                self.report.add(
                    "CHK001",
                    f"VIR_SAVE window [{lo}, {hi}) does not equal the resident "
                    f"finalized groups ({spans})",
                    program=self.program.name,
                    index=index,
                    hint="backing up less loses data on preemption; backing up "
                    "more stores garbage over live DDR",
                )
        self._check_pairing(index, instruction)

    def _check_pairing(self, index: int, instruction: Instruction) -> None:
        save_index = self.paired_save.get(index)
        if save_index is None:
            return  # VI003 (structural) already reported the missing SAVE
        save = self.program[save_index]
        problems: list[str] = []
        if (instruction.layer_id, instruction.row0, instruction.rows) != (
            save.layer_id,
            save.row0,
            save.rows,
        ):
            problems.append("section (layer, row0, rows) differs from its SAVE")
        if instruction.ch0 != save.ch0:
            problems.append(
                f"ch0 {instruction.ch0} != SAVE ch0 {save.ch0} (backup must be "
                f"a prefix of the SAVE window)"
            )
        if instruction.chs > save.chs:
            problems.append(
                f"chs {instruction.chs} exceeds SAVE chs {save.chs}"
            )
        if save.chs <= 0 or save.length % save.chs != 0:
            problems.append(
                f"SAVE length {save.length} is not divisible by its chs {save.chs}"
            )
        else:
            bytes_per_channel = save.length // save.chs
            if instruction.length != bytes_per_channel * instruction.chs:
                problems.append(
                    f"length {instruction.length} != {bytes_per_channel} "
                    f"bytes/channel x {instruction.chs} channels"
                )
        for problem in problems:
            self.report.add(
                "CHK004",
                f"VIR_SAVE/SAVE (save_id={instruction.save_id}, "
                f"SAVE at [{save_index}]) expansion arithmetic broken: {problem}",
                program=self.program.name,
                index=index,
                hint="the IAU expands VIR_SAVE with materialized() + "
                "with_channel_range() and trims the SAVE by the channels "
                "already stored; both need the prefix/divisibility contract",
            )

    def _check_barrier(self, index: int, instruction: Instruction) -> None:
        self._check_no_loose_state(index)
        resume = index + 1
        live, weights_live = self._live_state(resume)
        for slot in (0, 1):
            if live.get(slot) and slot in self.sim.data_tiles:
                tile = self.sim.data_tiles[slot]
                self.report.add(
                    "CHK002",
                    f"free VIR_BARRIER but the slot-{slot} tile (layer "
                    f"{tile.layer_id}, rows [{tile.row0}, {tile.row0 + tile.rows})) "
                    f"is still consumed after it",
                    program=self.program.name,
                    index=index,
                    hint="a task switch here invalidates the buffers; a barrier "
                    "is only free where every tile is reloaded anyway",
                )
        if weights_live and self.sim.weight_tile is not None:
            self.report.add(
                "CHK002",
                "free VIR_BARRIER but the resident weight chunk is still "
                "consumed after it",
                program=self.program.name,
                index=index,
            )

    def _check_no_loose_state(self, index: int) -> None:
        if self.sim.acc is not None:
            self._live_acc(index, self.program[index])
        section = self.sim.out
        if section is not None and section.groups:
            lo, hi = section.channel_span()
            self.report.add(
                "CHK001",
                f"switch point with finalized-but-unsaved output resident "
                f"(section {section.key}, channels [{lo}, {hi})) and no VIR_SAVE "
                f"to back it up",
                program=self.program.name,
                index=index,
                hint="preempting here drops the finalized groups; this point "
                "needs a VIR_SAVE (or must sit after the draining SAVE)",
            )

    def _live_acc(self, index: int, instruction: Instruction) -> None:
        acc = self.sim.acc
        assert acc is not None
        self.report.add(
            "CHK003",
            f"{instruction.opcode.name} exposes the in-flight CalcBlob "
            f"accumulator (layer {acc.layer_id}, channels [{acc.ch0}, "
            f"{acc.ch0 + acc.chs}), next in_ch {acc.next_in_ch0}) — partial "
            f"sums cannot be backed up",
            program=self.program.name,
            index=index,
            hint="interrupt points are only legal between CalcBlobs (after "
            "CALC_F or SAVE)",
        )

    def _check_pack(self, entry: int, pack: list[tuple[int, Instruction]]) -> None:
        """Recovery pack must restore exactly the live resident state."""
        resume = (pack[-1][0] + 1) if pack else entry + 1
        live, weights_live = self._live_state(resume)

        clones: dict[int, tuple[int, Instruction]] = {}
        weight_clone: tuple[int, Instruction] | None = None
        for index, clone in pack:
            if clone.opcode == Opcode.VIR_LOAD_D:
                clones[1 if clone.operand_b else 0] = (index, clone)
            else:
                weight_clone = (index, clone)

        for slot in (0, 1):
            tile = self.sim.data_tiles.get(slot)
            clone_entry = clones.get(slot)
            if live.get(slot) and tile is not None:
                if clone_entry is None:
                    self.report.add(
                        "CHK002",
                        f"recovery at [{entry}] does not restore the slot-{slot} "
                        f"tile (layer {tile.layer_id}, rows [{tile.row0}, "
                        f"{tile.row0 + tile.rows}), channels [{tile.ch0}, "
                        f"{tile.ch0 + tile.chs})) that later CALCs consume",
                        program=self.program.name,
                        index=entry,
                        hint="the pack needs a VIR_LOAD_D clone of the live "
                        "LOAD_D for this operand slot",
                    )
                elif not self._clone_matches(clone_entry[1], tile):
                    index, clone = clone_entry
                    self.report.add(
                        "CHK002",
                        f"recovery load restores rows [{clone.row0}, "
                        f"{clone.row0 + clone.rows}) channels [{clone.ch0}, "
                        f"{clone.ch0 + clone.chs}) ({clone.length} B) but the "
                        f"live slot-{slot} tile is rows [{tile.row0}, "
                        f"{tile.row0 + tile.rows}) channels [{tile.ch0}, "
                        f"{tile.ch0 + tile.chs}) ({tile.nbytes} B)",
                        program=self.program.name,
                        index=index,
                        hint="resuming would install the wrong data; the clone "
                        "must replicate the superseding LOAD_D exactly",
                    )
            elif clone_entry is not None:
                index, clone = clone_entry
                if tile is None:
                    self.report.add(
                        "CHK002",
                        f"recovery load installs a slot-{slot} tile that the "
                        f"uninterrupted path does not have resident here",
                        program=self.program.name,
                        index=index,
                        severity=Severity.WARNING,
                    )
                elif not self._clone_matches(clone, tile):
                    self.report.add(
                        "CHK002",
                        f"recovery load differs from the (dead) resident "
                        f"slot-{slot} tile — harmless but suspicious",
                        program=self.program.name,
                        index=index,
                        severity=Severity.WARNING,
                    )

        if weights_live and self.sim.weight_tile is not None:
            weights = self.sim.weight_tile
            matches = weight_clone is not None and (
                weight_clone[1].layer_id,
                weight_clone[1].ch0,
                weight_clone[1].chs,
                weight_clone[1].in_ch0,
                weight_clone[1].in_chs,
                weight_clone[1].length,
            ) == (
                weights.layer_id,
                weights.ch0,
                weights.chs,
                weights.in_ch0,
                weights.in_chs,
                weights.nbytes,
            )
            if not matches:
                self.report.add(
                    "CHK002",
                    f"recovery at [{entry}] does not restore the weight chunk "
                    f"(layer {weights.layer_id}, groups [{weights.ch0}, "
                    f"{weights.ch0 + weights.chs})) that the next CALC consumes",
                    program=self.program.name,
                    index=entry,
                    hint="either add a VIR_LOAD_W clone or schedule the point "
                    "before the blob's LOAD_W (the reference schedule reloads "
                    "weights at every blob)",
                )

    @staticmethod
    def _clone_matches(clone: Instruction, tile: DataTile) -> bool:
        return (
            clone.layer_id == tile.layer_id
            and clone.row0 == tile.row0
            and clone.rows == tile.rows
            and clone.ch0 == tile.ch0
            and clone.chs == tile.chs
            and clone.length == tile.nbytes
        )

    # -- liveness ------------------------------------------------------------

    def _live_state(self, start: int) -> tuple[dict[int, bool], bool]:
        """Which resident tiles / weights are read before redefinition.

        Scans forward over the *real* instructions from ``start``: a slot is
        live if a CALC consumes it before a LOAD_D redefines (same slot) or
        evicts (different layer) it; the weight chunk is live if a weighted
        CALC runs before the next LOAD_W.  The scan stops as soon as every
        resident item is resolved, so it is O(distance to the next blob) in
        compiler output, not O(n).
        """
        unresolved: dict[int, int] = {
            slot: tile.layer_id for slot, tile in self.sim.data_tiles.items()
        }
        weights_unresolved = self.sim.weight_tile is not None
        live = {slot: False for slot in unresolved}
        weights_live = False
        for index in range(start, len(self.program)):
            if not unresolved and not weights_unresolved:
                break
            instruction = self.program[index]
            if instruction.is_virtual:
                continue
            opcode = instruction.opcode
            if opcode == Opcode.LOAD_D:
                slot = 1 if instruction.operand_b else 0
                for resolved in [
                    s
                    for s, layer_id in unresolved.items()
                    if s == slot or layer_id != instruction.layer_id
                ]:
                    del unresolved[resolved]
            elif opcode == Opcode.LOAD_W:
                weights_unresolved = False
            elif opcode in (Opcode.CALC_I, Opcode.CALC_F):
                layer = self.layers.get(instruction.layer_id)
                if 0 in unresolved:
                    live[0] = True
                    del unresolved[0]
                if layer is not None and layer.kind == "add" and 1 in unresolved:
                    live[1] = True
                    del unresolved[1]
                if weights_unresolved and layer is not None and (
                    layer.kind in _WEIGHTED_KINDS
                ):
                    weights_live = True
                    weights_unresolved = False
        return live, weights_live


def replay_pass(
    program: Program,
    report: Report,
    config: AcceleratorConfig,
    layers: Mapping[int, LayerConfig],
) -> Replay:
    """Walk ``program`` through the buffer machine once: BUF findings, then
    the CHK findings of every virtual instruction, go to ``report``; the
    clean points and the tiles resident there come back."""
    return _Replay(BufferSim(program, config, layers, report)).run()
