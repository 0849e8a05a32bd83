"""DMA/compute overlap ablation (perfect double-buffering bound).

The reference simulator serialises LOAD / CALC / SAVE, which is why its VI
latency floor sits slightly above the paper's (~3 % vs ~2 % of
layer-by-layer, E9).  The real Angel-Eye double-buffers: a tile's DMA can be
prefetched behind the previous tile's computation.

This module computes the *perfect-prefetch* bound of that behaviour with a
credit model: compute cycles accrue "hiding credit", and each DMA descriptor
consumes credit before spending visible time.  Credit is banked only within
a layer (cross-layer prefetch would need the next layer's base addresses in
flight, which the instruction-driven front end doesn't do).

Used by the overlap ablation benchmark to show the latency floor moving
toward the paper's figure when overlap is granted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.latency import instruction_cycles, switch_events, window_profile
from repro.compiler.compile import CompiledNetwork
from repro.interrupt.base import InterruptMethod
from repro.isa.opcodes import Opcode

_DMA_OPCODES = (Opcode.LOAD_D, Opcode.LOAD_W, Opcode.SAVE)


def overlapped_instruction_cycles(compiled: CompiledNetwork, vi_mode: str) -> np.ndarray:
    """Per-instruction *visible* durations under perfect intra-layer prefetch."""
    serial = instruction_cycles(compiled, vi_mode)
    program = compiled.program_for(vi_mode)
    fetch = compiled.config.instruction_fetch_cycles

    overlapped = serial.copy()
    credit = 0
    current_layer = -1
    for index, instruction in enumerate(program):
        if instruction.layer_id != current_layer:
            current_layer = instruction.layer_id
            credit = 0
        if instruction.is_virtual:
            continue
        if instruction.opcode in _DMA_OPCODES:
            dma = int(serial[index]) - fetch
            hidden = min(credit, dma)
            credit -= hidden
            overlapped[index] = fetch + (dma - hidden)
        else:
            credit += int(serial[index]) - fetch
    return overlapped


@dataclass(frozen=True)
class OverlapSummary:
    """Serial vs overlapped execution of one program."""

    network: str
    serial_cycles: int
    overlapped_cycles: int

    @property
    def speedup(self) -> float:
        return self.serial_cycles / self.overlapped_cycles

    @property
    def hidden_fraction(self) -> float:
        """Share of serial time hidden behind compute."""
        return 1.0 - self.overlapped_cycles / self.serial_cycles


def overlap_summary(compiled: CompiledNetwork, vi_mode: str = "vi") -> OverlapSummary:
    serial = int(np.sum(instruction_cycles(compiled, vi_mode)))
    overlapped = int(np.sum(overlapped_instruction_cycles(compiled, vi_mode)))
    return OverlapSummary(
        network=compiled.graph.name,
        serial_cycles=serial,
        overlapped_cycles=overlapped,
    )


def overlapped_mean_latency(
    compiled: CompiledNetwork, method: InterruptMethod
) -> float:
    """Mean response latency (cycles) over the whole run, with overlap.

    Mirrors :func:`repro.analysis.latency.whole_program_profile` but on the
    overlapped timeline.
    """
    durations, events = switch_events(
        compiled, method, overlapped_instruction_cycles(compiled, method.vi_mode)
    )
    total = int(np.sum(durations))
    profile = window_profile(compiled.graph.name, method, events, (0, total))
    return profile.mean_cycles
