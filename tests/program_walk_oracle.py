"""Program-walk oracle: the per-instruction loops the column code replaced.

The structural rules (``PRG001``-``PRG004``, ``VI001``-``VI003``) and the
``ProgramMeta`` walk, verbatim from when every whole-program scan visited
one :class:`Instruction` object at a time.  Nothing here reads
``Program.words`` or imports from ``repro.verify.structural`` /
``repro.iau.fastpath``: each loop iterates the program and reads
attributes, so agreement with the column code is agreement between two
derivations, not the column code compared with itself
(``tests/test_program_words.py`` holds them equal diagnostic by diagnostic
and field by field).  :func:`build_program_meta` returns its tables as a
plain namespace with :class:`ProgramMeta`'s field names.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping

from repro.faults.plan import FaultSite
from repro.hw.timing import fetch_cycles, instruction_cycles
from repro.isa.instructions import NO_SAVE_ID, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.diagnostics import Report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork
    from repro.compiler.layer_config import LayerConfig

# -- the structural rules ----------------------------------------------------

#: Opcodes whose ``length`` field times a DMA descriptor.
_TRANSFER_OPS = (
    Opcode.LOAD_W,
    Opcode.LOAD_D,
    Opcode.SAVE,
    Opcode.VIR_SAVE,
    Opcode.VIR_LOAD_D,
    Opcode.VIR_LOAD_W,
)

#: Opcodes a virtual instruction may legally follow (besides a layer boundary).
_LEGAL_PREDECESSORS = (
    Opcode.CALC_F,
    Opcode.SAVE,
    Opcode.VIR_SAVE,
    Opcode.VIR_LOAD_D,
    Opcode.VIR_LOAD_W,
    Opcode.VIR_BARRIER,
)


def structural_pass(
    program: Program,
    report: Report,
    layers: Mapping[int, LayerConfig] | None = None,
) -> None:
    """Run all structural rules over ``program`` into ``report``."""
    _layer_ordering(program, report)
    _transfer_lengths(program, report)
    _calc_blobs(program, report)
    _virtual_positions(program, report)
    _save_id_pairing(program, report)
    if layers is not None:
        _known_layers(program, report, layers)


def _layer_ordering(program: Program, report: Report) -> None:
    previous = -1
    for index, instruction in enumerate(program):
        if instruction.layer_id < previous:
            report.add(
                "PRG001",
                f"layer_id {instruction.layer_id} after layer_id {previous} "
                f"— schedule must be layer-ordered",
                program=program.name,
                index=index,
                hint="the lowering emits layers in topological order; reorder the schedule",
            )
        previous = max(previous, instruction.layer_id)


def _transfer_lengths(program: Program, report: Report) -> None:
    for index, instruction in enumerate(program):
        if instruction.opcode in _TRANSFER_OPS and instruction.length <= 0:
            report.add(
                "PRG002",
                f"{instruction.opcode.name} with length {instruction.length}; "
                f"transfers must move at least one byte",
                program=program.name,
                index=index,
                hint="a zero-length DMA descriptor stalls the real DMA engine",
            )


def _calc_blobs(program: Program, report: Report) -> None:
    """CALC_I runs must end in a CALC_F on the same output-channel window."""
    open_window: tuple[int, int, int] | None = None  # (layer, ch0, chs)
    for index, instruction in enumerate(program):
        if instruction.opcode == Opcode.CALC_I:
            window = (instruction.layer_id, instruction.ch0, instruction.chs)
            if open_window is not None and open_window != window:
                report.add(
                    "PRG003",
                    f"CALC_I window {window} while blob {open_window} is still open",
                    program=program.name,
                    index=index,
                    hint="finish the open CalcBlob with a CALC_F before starting another",
                )
            open_window = window
        elif instruction.opcode == Opcode.CALC_F:
            window = (instruction.layer_id, instruction.ch0, instruction.chs)
            if open_window is not None and open_window != window:
                report.add(
                    "PRG003",
                    f"CALC_F window {window} does not close open blob {open_window}",
                    program=program.name,
                    index=index,
                    hint="CALC_F must cover the same (layer, ch0, chs) as its CALC_I run",
                )
            open_window = None
        elif instruction.opcode == Opcode.SAVE and open_window is not None:
            report.add(
                "PRG003",
                f"SAVE while CalcBlob {open_window} has no CALC_F — "
                f"intermediate results would be lost",
                program=program.name,
                index=index,
                hint="drain the blob with CALC_F before the SAVE",
            )
            open_window = None  # recover: keep later findings independent
    if open_window is not None:
        report.add(
            "PRG003",
            f"program ends with unterminated CalcBlob {open_window}",
            program=program.name,
            index=len(program) - 1,
            hint="the last CALC of every blob must be a CALC_F",
        )


def _virtual_positions(program: Program, report: Report) -> None:
    """Virtual instructions may only follow CALC_F / SAVE / virtual / layer start."""
    previous: Instruction | None = None
    for index, instruction in enumerate(program):
        if instruction.is_virtual:
            at_layer_boundary = (
                previous is None or previous.layer_id != instruction.layer_id
            )
            if not at_layer_boundary and previous is not None and (
                previous.opcode not in _LEGAL_PREDECESSORS
            ):
                report.add(
                    "VI001",
                    f"{instruction.opcode.name} after {previous.opcode.name} — "
                    f"interrupt points are only legal after CALC_F or SAVE",
                    program=program.name,
                    index=index,
                    hint="mid-blob and mid-load states cannot be backed up; move the "
                    "virtual instruction to the next CALC_F/SAVE boundary",
                )
        previous = instruction


def _save_id_pairing(program: Program, report: Report) -> None:
    pending: dict[int, int] = {}  # save_id -> index of the VIR_SAVE announcing it
    for index, instruction in enumerate(program):
        if instruction.opcode == Opcode.VIR_SAVE:
            if instruction.save_id == NO_SAVE_ID:
                report.add(
                    "VI002",
                    "VIR_SAVE without a save_id",
                    program=program.name,
                    index=index,
                    hint="SAVE rewriting credits the backup against the SAVE "
                    "carrying the same save_id",
                )
            else:
                pending[instruction.save_id] = index
        elif instruction.opcode == Opcode.SAVE and instruction.save_id != NO_SAVE_ID:
            pending.pop(instruction.save_id, None)
    for save_id, index in pending.items():
        report.add(
            "VI003",
            f"VIR_SAVE save_id={save_id} has no subsequent real SAVE to rewrite",
            program=program.name,
            index=index,
            hint="every VIR_SAVE must be consumed by a later SAVE with the same "
            "save_id, or its backup is never credited",
        )


def _known_layers(
    program: Program, report: Report, layers: Mapping[int, LayerConfig]
) -> None:
    seen: set[int] = set()
    for index, instruction in enumerate(program):
        layer_id = instruction.layer_id
        if layer_id not in layers and layer_id not in seen:
            seen.add(layer_id)
            report.add(
                "PRG004",
                f"layer_id {layer_id} has no entry in the layer-config table",
                program=program.name,
                index=index,
                hint="the layer-config table and the instruction stream must come "
                "from the same compile",
            )


# -- the ProgramMeta walk ------------------------------------------------------

#: The fault sites whose draws are a pure function of the instruction stream.
BATCH_FAULT_SITES: tuple[FaultSite, ...] = (
    FaultSite.DDR_STALL,
    FaultSite.DDR_BIT_FLIP,
    FaultSite.IAU_SPURIOUS_PREEMPT,
)


#: Event template of one real instruction: (layer_id, opcode name, exec
#: cycles, burst direction or None, burst region or None, burst bytes).
_EventSpec = tuple[int, str, int, str | None, str | None, int]

#: Resident-tile snapshot at a clean boundary.
_DataSpec = tuple[int, int, int, int, int, int]  # layer, row0, rows, ch0, chs, nbytes
_WeightSpec = tuple[int, int, int, int, int, int]  # layer, ch0, chs, in_ch0, in_chs, nbytes


def batch_draws(instruction: Instruction) -> tuple[FaultSite, ...]:
    """The Bernoulli draws ``step()`` performs at ``instruction`` on the
    *uninterrupted armed* path (the batch regime: no preemption pending, no
    recovery replay).

    Transfers draw one DDR-stall and one DDR-bit-flip check; a switch-point
    virtual draws one spurious-preempt check (``can_switch`` is false with
    no pending preemption, so the drop-preempt stream is never touched).
    This is the per-instruction term behind
    :attr:`ProgramMeta.opportunities`.
    """
    if instruction.is_virtual:
        if instruction.is_switch_point:
            return (FaultSite.IAU_SPURIOUS_PREEMPT,)
        return ()
    if instruction.opcode in (Opcode.LOAD_D, Opcode.LOAD_W):
        return (FaultSite.DDR_STALL, FaultSite.DDR_BIT_FLIP)
    if instruction.opcode is Opcode.SAVE and instruction.chs:
        return (FaultSite.DDR_STALL, FaultSite.DDR_BIT_FLIP)
    return ()


def build_program_meta(compiled: "CompiledNetwork", program: "Program") -> SimpleNamespace:
    """Walk ``program`` once, mirroring the step-wise timing/bookkeeping.

    The replay assumes the uninterrupted path (virtual instructions are
    discarded after their fetch) — exactly the regime ``run_batched``
    restricts itself to.
    """
    config = compiled.config
    fetch = fetch_cycles(config)
    n = len(program)

    cum = [0] * (n + 1)
    stats = SimpleNamespace(
        **{
            name: [0] * (n + 1)
            for name in (
                "instructions", "cycles", "load_cycles", "calc_cycles",
                "save_cycles", "bytes_loaded", "bytes_saved",
            )
        }
    )
    events: list[_EventSpec | None] = [None] * n
    boundaries: list[int] = []
    boundary_tiles: dict[
        int, tuple[tuple[tuple[int, _DataSpec], ...], _WeightSpec | None]
    ] = {}
    opportunities: dict[str, list[int]] = {
        site.value: [0] * (n + 1) for site in BATCH_FAULT_SITES
    }

    # Replayed on-chip bookkeeping (timing-only: descriptors, no arrays).
    data_tiles: dict[int, _DataSpec] = {}
    weight: _WeightSpec | None = None
    # (layer, row0, rows, ch0, chs); next_in_ch0 untracked
    acc: tuple[int, int, int, int, int] | None = None
    # (layer, row0, rows, [groups (ch0, chs, nbytes)])
    out: tuple[int, int, int, list[tuple[int, int, int]]] | None = None

    def snapshot(index: int) -> None:
        boundaries.append(index)
        boundary_tiles[index] = (
            tuple(sorted(data_tiles.items())),
            weight,
        )

    snapshot(0)
    clock = 0
    for j, instruction in enumerate(program):
        layer = compiled.layer_config(instruction.layer_id)
        cycles = instruction_cycles(config, instruction, layer)
        clock += fetch + cycles
        cum[j + 1] = clock

        opcode = instruction.opcode
        for prefix in (
            stats.instructions,
            stats.cycles,
            stats.load_cycles,
            stats.calc_cycles,
            stats.save_cycles,
            stats.bytes_loaded,
            stats.bytes_saved,
        ):
            prefix[j + 1] = prefix[j]
        for opp in opportunities.values():
            opp[j + 1] = opp[j]
        for site in batch_draws(instruction):
            opportunities[site.value][j + 1] += 1

        if not instruction.is_virtual:
            stats.instructions[j + 1] += 1
            stats.cycles[j + 1] += cycles

        if opcode == Opcode.LOAD_D:
            slot = 1 if instruction.operand_b else 0
            for key in [k for k, t in data_tiles.items() if t[0] != instruction.layer_id]:
                del data_tiles[key]
            data_tiles[slot] = (
                instruction.layer_id,
                instruction.row0,
                instruction.rows,
                instruction.ch0,
                instruction.chs,
                instruction.length,
            )
            stats.load_cycles[j + 1] += cycles
            stats.bytes_loaded[j + 1] += instruction.length
            region = layer.input2_region if instruction.operand_b else layer.input_region
            events[j] = (
                instruction.layer_id, opcode.name, cycles, "load", region, instruction.length,
            )
        elif opcode == Opcode.LOAD_W:
            weight = (
                instruction.layer_id,
                instruction.ch0,
                instruction.chs,
                instruction.in_ch0,
                instruction.in_chs,
                instruction.length,
            )
            stats.load_cycles[j + 1] += cycles
            stats.bytes_loaded[j + 1] += instruction.length
            events[j] = (
                instruction.layer_id, opcode.name, cycles, "load",
                layer.weight_region, instruction.length,
            )
        elif opcode in (Opcode.CALC_I, Opcode.CALC_F):
            blob_key = (
                instruction.layer_id,
                instruction.row0,
                instruction.rows,
                instruction.ch0,
                instruction.chs,
            )
            if layer.kind == "conv":
                if instruction.in_ch0 == 0:
                    acc = blob_key
                finalize = opcode == Opcode.CALC_F
            else:
                finalize = True  # non-conv kinds never hold an accumulator
            if finalize:
                section_key = (instruction.layer_id, instruction.row0, instruction.rows)
                if out is None or out[:3] != section_key:
                    out = (*section_key, [])
                out[3].append(
                    (
                        instruction.ch0,
                        instruction.chs,
                        instruction.rows * layer.out_shape.width * instruction.chs,
                    )
                )
                if layer.kind == "conv":
                    acc = None
            stats.calc_cycles[j + 1] += cycles
            events[j] = (instruction.layer_id, opcode.name, cycles, None, None, 0)
        elif opcode == Opcode.SAVE:
            if instruction.chs:
                lo, hi = instruction.ch0, instruction.ch0 + instruction.chs
                if out is not None:
                    remaining = [g for g in out[3] if not (lo <= g[0] < hi)]
                    out = (*out[:3], remaining) if remaining else None
                stats.save_cycles[j + 1] += cycles
                stats.bytes_saved[j + 1] += instruction.length
                events[j] = (
                    instruction.layer_id, opcode.name, cycles, "save",
                    layer.output_region, instruction.length,
                )
            else:
                events[j] = (instruction.layer_id, opcode.name, 0, None, None, 0)
        # Virtual instructions: discarded after their fetch — no event, no
        # stats, no bookkeeping.

        if acc is None and out is None:
            snapshot(j + 1)

    return SimpleNamespace(
        fetch=fetch,
        cum=cum,
        stats=stats,
        events=events,
        boundaries=boundaries,
        boundary_tiles=boundary_tiles,
        opportunities=opportunities,
    )
