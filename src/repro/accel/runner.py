"""Single-task straight-line program runner (no IAU).

This is the *original*, non-interruptible accelerator of the paper's related
work: it fetches and executes one program front to back.  The multi-task
path goes through :mod:`repro.iau` instead; this runner provides the
baseline timing (and the functional ground for the bit-exactness tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.core import AcceleratorCore
from repro.compiler.compile import CompiledNetwork
from repro.hw.timing import fetch_cycles
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.obs.events import EventKind


@dataclass(frozen=True)
class RunResult:
    """Outcome of one straight-line program execution."""

    total_cycles: int
    compute_cycles: int
    fetch_cycles: int
    instructions: int

    def seconds(self, compiled: CompiledNetwork) -> float:
        return compiled.config.clock.cycles_to_s(self.total_cycles)


def run_program(
    compiled: CompiledNetwork,
    vi_mode: str = "none",
    functional: bool = True,
    input_map: np.ndarray | None = None,
    bus: EventBus | None = None,
) -> RunResult:
    """Execute one inference front to back; returns cycle totals.

    With ``vi_mode='none'`` this is the original accelerator.  Other modes
    execute the same real instructions but still pay the fetch cost of the
    (skipped) virtual instructions, which is exactly the no-interrupt
    overhead of deploying the VI-ISA.

    ``bus`` receives structured events (instruction retires, DDR bursts).
    """
    if input_map is not None:
        compiled.set_input(input_map)
    program = compiled.program_for(vi_mode)
    core = AcceleratorCore(
        compiled.config,
        compiled.layout.ddr,
        obs=ObsConfig(functional=functional),
        bus=bus,
    )

    clock = 0
    compute = 0
    fetched = 0
    executed = 0
    per_fetch = fetch_cycles(compiled.config)
    for index, instruction in enumerate(program):
        clock += per_fetch
        fetched += per_fetch
        if instruction.is_virtual:
            continue  # discarded: no interrupt is ever pending on this path
        layer = compiled.layer_config(instruction.layer_id)
        if bus is not None:
            bus.advance(clock)
        cycles = core.execute(instruction, layer)
        if bus is not None:
            bus.emit(
                EventKind.INSTR_RETIRE,
                cycle=clock,
                task_id=0,
                layer_id=instruction.layer_id,
                duration=cycles,
                opcode=instruction.opcode.name,
                program_index=index,
            )
        clock += cycles
        compute += cycles
        executed += 1
    return RunResult(
        total_cycles=clock,
        compute_cycles=compute,
        fetch_cycles=fetched,
        instructions=executed,
    )
