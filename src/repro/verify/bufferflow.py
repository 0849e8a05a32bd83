"""Buffer-state dataflow (BUF001-BUF007).

A :class:`BufferSim` runs the real (non-virtual) instruction stream through
:class:`repro.accel.core.BufferMachine` — the one state machine over the
on-chip data-tile slots, weight tile, CalcBlob accumulator and
finalized-output section that :class:`~repro.accel.core.AcceleratorCore`
itself executes on — with a sink that records a diagnostic where the core
would raise.  The machine then patches its state and carries on, so one run
surfaces every violation, and a program the replay accepts cannot trip a
buffer rule in the simulator: there is no second copy of the rules to drift.

The only check made here rather than in the machine is the one no
instruction-at-a-time executor can make: results still unsaved when the
program *ends* (:meth:`BufferSim.finish`, the whole-program half of
``BUF007``).
"""

from __future__ import annotations

from typing import Mapping

from repro.accel.core import BufferMachine, DataTile, WeightTile
from repro.compiler.layer_config import LayerConfig
from repro.hw.config import AcceleratorConfig
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.diagnostics import Report


#: What one replay leaves behind: every index at which the machine is
#: *clean* (``acc is None and out is None`` with the instruction at that
#: index about to be fetched; 0 always is, ``len(program)`` is the end), in
#: ascending order, mapped to the data tiles and weight chunk resident there.
Replay = dict[int, tuple[dict[int, DataTile], WeightTile | None]]


class BufferSim(BufferMachine):
    """The on-chip buffer machine, reporting into a :class:`Report`.

    Feed it real instructions in program order via :meth:`step`; virtual
    instructions must be skipped by the caller (they do not touch buffers on
    the uninterrupted path).  State recovers after every finding so later
    instructions are still checked against a best-effort state.
    """

    def __init__(
        self,
        program: Program,
        config: AcceleratorConfig,
        layers: Mapping[int, LayerConfig],
        report: Report,
    ) -> None:
        super().__init__(config)
        self.program = program
        self.layers = layers
        self.report = report
        self.index = 0  # of the instruction being stepped: where findings anchor

    def _violation(
        self, code: str, layer: LayerConfig, message: str, hint: str | None = None
    ) -> None:
        self.report.add(
            code, message, program=self.program.name, index=self.index, hint=hint
        )

    def step(self, index: int, instruction: Instruction) -> None:
        layer = self.layers.get(instruction.layer_id)
        if layer is None:
            return  # PRG004 already reported by the structural pass
        self.index = index
        opcode = instruction.opcode
        if opcode == Opcode.LOAD_D:
            self._install_data(instruction, layer)
        elif opcode == Opcode.LOAD_W:
            self._install_weights(instruction, layer)
        elif opcode in (Opcode.CALC_I, Opcode.CALC_F):
            self._advance_calc(instruction, layer)
        elif opcode == Opcode.SAVE:
            self._drain_output(instruction, layer)

    def finish(self, index: int) -> None:
        """End-of-program check: nothing finalized may be left unsaved."""
        if self.out is not None and self.out.groups:
            lo, hi = self.out.channel_span()
            self.report.add(
                "BUF007",
                f"program ends with finalized-but-unsaved output "
                f"(layer {self.out.layer_id}, rows [{self.out.row0}, "
                f"{self.out.row0 + self.out.rows}), channels [{lo}, {hi}))",
                program=self.program.name,
                index=index,
                hint="every finalized group must be drained by a SAVE before "
                "the program ends",
            )
