"""The stable cycle-estimation API (v2.0).

Two consumers need to price work they have not run yet — the QoS admission
gate (:mod:`repro.qos.admission`) and the farm's predictive scheduler
(:mod:`repro.farm.scheduler`) — and both must agree with the simulator to
the cycle.  This module is the one documented estimator they share:

* :func:`estimate_job_cycles` — static cost of one *uninterrupted* job,
  computed instruction kind by instruction kind
  (:func:`repro.hw.timing.kind_cycles`) from the same timing model the core
  uses.  Exact on the no-interrupt path (equal to
  ``RunResult.total_cycles`` of :func:`~repro.accel.runner.run_program`).
* :class:`RemainingCycles` — the same prediction at every instruction
  boundary, backed by the fast path's cached
  :class:`~repro.iau.fastpath.ProgramMeta` prefix sums, so "how many
  cycles are left from here?" is one subtraction.  This is the PREMA-style
  remaining-cycle signal: because the timing model is deterministic, the
  prediction is *exact*, not a moving average.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.hw.timing import fetch_cycles, kind_cycles

if TYPE_CHECKING:
    from repro.compiler.compile import CompiledNetwork
    from repro.hw.config import AcceleratorConfig
    from repro.isa.program import Program


def estimate_job_cycles(
    config: "AcceleratorConfig", compiled: "CompiledNetwork", program: "Program"
) -> int:
    """Static cycle estimate of one uninterrupted job of ``program``.

    Mirrors the simulator's timing model (fetch for everything, DMA
    transfer for LOAD/SAVE, MAC-array occupancy for CALC) without touching
    DDR, so a scheduler can price a job it has not run yet.  Virtual
    instructions cost their fetch only — exactly what they cost on the
    uninterrupted path.  The sum runs over the program's instruction
    *kinds*, one price each times how often the kind occurs, so pricing a
    fresh compile decodes a few hundred instructions, not all of them, and
    builds no meta to answer.

    When the network's meta table already describes this program (built by
    a previous run, or stored with the network in the on-disk compile
    cache), the answer is read off its prefix sums instead — same timing
    model, same value, O(1), no instruction decoded.
    """
    vi_mode = compiled.variant_of(program)
    if vi_mode is not None and config == compiled.config:
        meta = compiled.cached_mode_meta(vi_mode)
        if meta is not None:
            return meta.total_cycles
    priced = kind_cycles(config, compiled, program)
    return fetch_cycles(config, len(program)) + int(priced.cycles @ priced.counts)


def estimate_service_cycles(
    config: "AcceleratorConfig", compiled: "CompiledNetwork", vi_mode: str = "vi"
) -> int:
    """:func:`estimate_job_cycles` of a variant, by vi-mode name — how a
    dispatcher prices every (node, service) pair."""
    return estimate_job_cycles(config, compiled, compiled.program_for(vi_mode))


class RemainingCycles:
    """Exact remaining-cycle predictions over a program's prefix sums.

    Wraps the :class:`~repro.iau.fastpath.ProgramMeta` in the compiled
    network's table (built once per ``(network, variant)`` pair), exposing
    the cumulative-cycle table as a prediction surface::

        predictor = RemainingCycles(compiled)           # the "vi" program
        predictor.total_cycles                          # one whole job
        predictor.remaining(context.instr_index)        # from a resume point
        predictor.completed_fraction(index)             # progress in [0, 1]

    All quantities assume the uninterrupted path — they are lower bounds
    under pre-emption (the pre-empting task's cycles and the VI
    backup/recovery transfers come on top), which is the standard
    PREMA-style scheduling signal.
    """

    def __init__(self, compiled: "CompiledNetwork", program: "Program | None" = None):
        self.compiled = compiled
        self.program = compiled.program if program is None else program
        self._meta = compiled.execution_meta(self.program)

    def __len__(self) -> int:
        return len(self.program)

    @property
    def total_cycles(self) -> int:
        """Cycles of one uninterrupted job (== :func:`estimate_job_cycles`)."""
        return self._meta.total_cycles

    def elapsed(self, instr_index: int) -> int:
        """Cycles spent when instruction ``instr_index`` is about to fetch."""
        if not 0 <= instr_index <= len(self.program):
            raise SchedulerError(
                f"instruction index {instr_index} outside [0, {len(self.program)}]"
            )
        return self._meta.cum[instr_index]

    def remaining(self, instr_index: int = 0) -> int:
        """Cycles left from instruction ``instr_index`` to job completion."""
        return self.total_cycles - self.elapsed(instr_index)

    def completed_fraction(self, instr_index: int) -> float:
        """Progress in ``[0, 1]`` at instruction ``instr_index``."""
        if self.total_cycles == 0:
            return 1.0
        return self.elapsed(instr_index) / self.total_cycles
