"""Compile-time statistics used by examples and the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.compile import CompiledNetwork
from repro.estimate import estimate_service_cycles
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
    """Count instructions (the opcode histogram) and quote the program's
    straight-line cycles (the one job estimate every scheduler plans with)."""
    program = compiled.program_for(vi_mode)
    histogram = program.opcode_histogram()
    return ProgramStats(
        instructions=len(program),
        virtual=program.num_virtual(),
        loads=histogram.get(Opcode.LOAD_W, 0) + histogram.get(Opcode.LOAD_D, 0),
        calcs=histogram.get(Opcode.CALC_I, 0) + histogram.get(Opcode.CALC_F, 0),
        saves=histogram.get(Opcode.SAVE, 0),
        estimated_cycles=estimate_service_cycles(compiled.config, compiled, vi_mode),
    )

