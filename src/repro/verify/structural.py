"""Structural program-shape rules (PRG001-PRG004, VI001-VI003).

These are the historic :func:`repro.isa.validate.validate_program` checks
re-expressed as engine rules: instead of raising on the first violation they
record every one, so a malformed compile surfaces all of its problems at
once.  The raising behaviour lives on in the thin compatibility wrapper.

Every rule reads :attr:`Program.words` as columns: numpy finds the
violating indices, and Python runs only over those (plus the few stateful
events of ``VI002``/``VI003``) to word the diagnostics.
``tests/program_walk_oracle.py`` keeps the one-instruction-at-a-time loops
these replaced as the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.isa.instructions import NO_SAVE_ID
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.diagnostics import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> isa)
    from repro.compiler.layer_config import LayerConfig

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


def _name(code: int) -> str:
    return Opcode(code).name


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
    layer_id = program.words["layer_id"].astype(np.int64)
    # Highest layer seen before each index (-1 before the first).
    previous = np.concatenate(([-1], np.maximum.accumulate(layer_id)[:-1]))
    for index in np.flatnonzero(layer_id < previous).tolist():
        report.add(
            "PRG001",
            f"layer_id {layer_id[index]} after layer_id {previous[index]} "
            f"— schedule must be layer-ordered",
            program=program.name,
            index=index,
            hint="the lowering emits layers in topological order; reorder the schedule",
        )


def _transfer_lengths(program: Program, report: Report) -> None:
    words = program.words
    empty = np.isin(words["opcode"], _TRANSFER_OPS) & (words["length"] == 0)
    for index in np.flatnonzero(empty).tolist():
        report.add(
            "PRG002",
            f"{_name(words['opcode'][index])} with length 0; "
            f"transfers must move at least one byte",
            program=program.name,
            index=index,
            hint="a zero-length DMA descriptor stalls the real DMA engine",
        )


def _calc_blobs(program: Program, report: Report) -> None:
    """CALC_I runs must end in a CALC_F on the same output-channel window."""
    words = program.words
    # Only CALC_I / CALC_F / SAVE touch the open blob, and each leaves a
    # state that depends on itself alone (CALC_I opens its own window, the
    # other two close), so what is open at an event is read off the event
    # before it.
    events = np.flatnonzero(np.isin(words["opcode"], (Opcode.CALC_I, Opcode.CALC_F, Opcode.SAVE)))
    if not len(events):
        return
    opcode = words["opcode"][events]
    window = np.stack(
        [words[name][events].astype(np.int64) for name in ("layer_id", "ch0", "chs")], axis=1
    )
    opened = np.concatenate(([False], opcode[:-1] == Opcode.CALC_I))
    differs = np.concatenate(([False], (window[1:] != window[:-1]).any(axis=1)))
    bad = opened & ((opcode == Opcode.SAVE) | differs)
    for k in np.flatnonzero(bad).tolist():
        here, open_window = tuple(window[k].tolist()), tuple(window[k - 1].tolist())
        if opcode[k] == Opcode.CALC_I:
            message = f"CALC_I window {here} while blob {open_window} is still open"
            hint = "finish the open CalcBlob with a CALC_F before starting another"
        elif opcode[k] == Opcode.CALC_F:
            message = f"CALC_F window {here} does not close open blob {open_window}"
            hint = "CALC_F must cover the same (layer, ch0, chs) as its CALC_I run"
        else:
            message = (
                f"SAVE while CalcBlob {open_window} has no CALC_F — "
                f"intermediate results would be lost"
            )
            hint = "drain the blob with CALC_F before the SAVE"
        report.add("PRG003", message, program=program.name, index=int(events[k]), hint=hint)
    if opcode[-1] == Opcode.CALC_I:
        report.add(
            "PRG003",
            f"program ends with unterminated CalcBlob {tuple(window[-1].tolist())}",
            program=program.name,
            index=len(program) - 1,
            hint="the last CALC of every blob must be a CALC_F",
        )


def _virtual_positions(program: Program, report: Report) -> None:
    """Virtual instructions may only follow CALC_F / SAVE / virtual / layer start."""
    opcode, layer_id = program.words["opcode"], program.words["layer_id"]
    bad = (
        program.virtual_mask[1:]
        & (layer_id[1:] == layer_id[:-1])
        & ~np.isin(opcode[:-1], _LEGAL_PREDECESSORS)
    )
    for index in (np.flatnonzero(bad) + 1).tolist():
        report.add(
            "VI001",
            f"{_name(opcode[index])} after {_name(opcode[index - 1])} — "
            f"interrupt points are only legal after CALC_F or SAVE",
            program=program.name,
            index=index,
            hint="mid-blob and mid-load states cannot be backed up; move the "
            "virtual instruction to the next CALC_F/SAVE boundary",
        )


def _save_id_pairing(program: Program, report: Report) -> None:
    opcode, save_id = program.words["opcode"], program.words["save_id"]
    paired = (opcode == Opcode.VIR_SAVE) | ((opcode == Opcode.SAVE) & (save_id != NO_SAVE_ID))
    events = np.flatnonzero(paired)
    pending: dict[int, int] = {}  # save_id -> index of the VIR_SAVE announcing it
    for index, code, sid in zip(
        events.tolist(), opcode[events].tolist(), save_id[events].tolist()
    ):
        if code == Opcode.SAVE:
            pending.pop(sid, None)
        elif sid == NO_SAVE_ID:
            report.add(
                "VI002",
                "VIR_SAVE without a save_id",
                program=program.name,
                index=index,
                hint="SAVE rewriting credits the backup against the SAVE "
                "carrying the same save_id",
            )
        else:
            pending[sid] = index
    for sid, index in pending.items():
        report.add(
            "VI003",
            f"VIR_SAVE save_id={sid} has no subsequent real SAVE to rewrite",
            program=program.name,
            index=index,
            hint="every VIR_SAVE must be consumed by a later SAVE with the same "
            "save_id, or its backup is never credited",
        )


def _known_layers(
    program: Program, report: Report, layers: Mapping[int, LayerConfig]
) -> None:
    ids, first = np.unique(program.words["layer_id"], return_index=True)
    unknown = sorted(
        (index, layer_id)
        for layer_id, index in zip(ids.tolist(), first.tolist())
        if layer_id not in layers
    )
    for index, layer_id in unknown:
        report.add(
            "PRG004",
            f"layer_id {layer_id} has no entry in the layer-config table",
            program=program.name,
            index=index,
            hint="the layer-config table and the instruction stream must come "
            "from the same compile",
        )
