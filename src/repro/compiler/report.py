"""Compile-time statistics used by examples and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.compile import CompiledNetwork
from repro.hw.timing import blob_cycles, calc_cycles, transfer_cycles
from repro.isa.opcodes import Opcode


@dataclass(frozen=True)
class ProgramStats:
    """Instruction-count and estimated-cycle breakdown of one program."""

    instructions: int
    virtual: int
    loads: int
    calcs: int
    saves: int
    estimated_cycles: int


def program_stats(compiled: CompiledNetwork, vi_mode: str = "vi") -> ProgramStats:
    """Count instructions and estimate straight-line cycles for a program,
    from its opcode histogram and its ``length`` / ``layer_id`` columns."""
    program = compiled.program_for(vi_mode)
    config = compiled.config
    histogram = program.opcode_histogram()
    opcode = program.words["opcode"]
    cycles = config.instruction_fetch_cycles * len(program)

    # Every real LOAD / SAVE pays its descriptor: one price per distinct length.
    transfers = np.isin(opcode, (Opcode.LOAD_W, Opcode.LOAD_D, Opcode.SAVE))
    lengths, counts = np.unique(program.words["length"][transfers], return_counts=True)
    for length, count in zip(lengths.tolist(), counts.tolist()):
        cycles += count * transfer_cycles(config, length)
    # Every CALC of a layer costs the same.
    calcs = np.isin(opcode, (Opcode.CALC_I, Opcode.CALC_F))
    layer_ids, counts = np.unique(program.words["layer_id"][calcs], return_counts=True)
    for layer_id, count in zip(layer_ids.tolist(), counts.tolist()):
        layer = compiled.layer_config(layer_id)
        if layer.kind == "global":
            cycles += count * layer.in_shape.height * layer.in_shape.width
        else:
            cycles += count * calc_cycles(config, layer.out_shape.width, layer.kernel)
    return ProgramStats(
        instructions=len(program),
        virtual=program.num_virtual(),
        loads=histogram.get(Opcode.LOAD_W, 0) + histogram.get(Opcode.LOAD_D, 0),
        calcs=histogram.get(Opcode.CALC_I, 0) + histogram.get(Opcode.CALC_F, 0),
        saves=histogram.get(Opcode.SAVE, 0),
        estimated_cycles=cycles,
    )


def per_layer_worst_wait(compiled: CompiledNetwork) -> dict[str, int]:
    """Worst-case VI-method wait (one CalcBlob, Eq. 1 numerator) per conv layer."""
    waits: dict[str, int] = {}
    for layer in compiled.layer_configs:
        if layer.kind != "conv":
            continue
        waits[layer.name] = blob_cycles(
            compiled.config,
            layer.in_channels,
            layer.out_shape.width,
            layer.kernel,
        )
    return waits
