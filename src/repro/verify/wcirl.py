"""Static worst-case interrupt response latency (WCL001-WCL002).

With no interrupt in flight the accelerator executes the program straight-
line, so per-instruction completion times are a prefix sum of the timing
model (:func:`repro.hw.timing.kind_cycles` plus the per-instruction fetch).
A request arriving at time ``t`` is served at the first switch opportunity
at or after ``t``, paying that opportunity's backup DMA; the static WCIRL is
therefore the maximum over opportunities of

    (gap since the previous opportunity) + (backup cost of this one).

:func:`straight_line_cycles` and :func:`switch_opportunities` are that
timeline as columns.  The bound here and the latency profiles of
:mod:`repro.analysis.latency` are both computed from them; the differential
tests assert bound-dominance against measured IAU preemptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.hw.config import AcceleratorConfig
from repro.hw.timing import fetch_cycles, kind_cycles, transfer_cycles
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.diagnostics import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> isa)
    from repro.compiler.layer_config import LayerConfig


def straight_line_cycles(
    program: Program,
    config: AcceleratorConfig,
    layer_of: Callable[[int], "LayerConfig | None"],
) -> np.ndarray:
    """Duration of each instruction on the straight-line (no-interrupt) run:
    its fetch plus its execute cycles (0 for a virtual instruction, which
    the IAU discards after the fetch)."""
    priced = kind_cycles(config, layer_of, program)
    return priced.cycles[priced.inverse] + fetch_cycles(config)


def switch_opportunities(
    program: Program, config: AcceleratorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, backups)``: the instruction index of every switch
    opportunity, ascending, and the backup cycles a switch there pays — the
    VIR_SAVE's DMA, 0 at a recovery load or a barrier.  The program end is
    not listed; it is always a free opportunity."""
    indices = np.array(program.switch_point_indices, dtype=np.int64)
    words = program.words[indices]
    backups = [
        transfer_cycles(config, length) if opcode == Opcode.VIR_SAVE else 0
        for opcode, length in zip(words["opcode"].tolist(), words["length"].tolist())
    ]
    return indices, np.array(backups, dtype=np.int64)


@dataclass(frozen=True)
class StaticWcirl:
    """The static worst-case interrupt response latency of one program."""

    program: str
    #: Straight-line execution time of the whole program.
    total_cycles: int
    #: Switch opportunities inside the program (program end not counted).
    switch_points: int
    #: Largest cycle gap between consecutive opportunities (no backup cost).
    worst_gap_cycles: int
    #: The WCIRL bound: worst gap-plus-backup over all opportunities.
    worst_response_cycles: int
    #: Instruction index of the worst opportunity (None = the program end).
    worst_index: int | None

    def worst_us(self, config: AcceleratorConfig) -> float:
        return config.clock.cycles_to_us(self.worst_response_cycles)


def wcirl_bound(
    program: Program,
    config: AcceleratorConfig,
    layers: Mapping[int, "LayerConfig"],
) -> StaticWcirl:
    """Compute the static WCIRL of ``program`` under ``config``'s timing."""
    ends = np.cumsum(straight_line_cycles(program, config, layers.get))
    indices, backups = switch_opportunities(program, config)
    total = int(ends[-1]) if len(ends) else 0
    # Opportunity times, the program end appended as a free one.
    times = np.append(ends[indices], total)
    gaps = np.diff(times, prepend=0)
    # A zero gap (two opportunities at one time) serves no arrival.
    responses = np.where(gaps > 0, gaps + np.append(backups, 0), 0)
    worst = int(np.argmax(responses))
    worst_response = int(responses[worst])
    return StaticWcirl(
        program=program.name,
        total_cycles=total,
        switch_points=len(indices),
        worst_gap_cycles=int(gaps.max()),
        worst_response_cycles=worst_response,
        worst_index=(
            int(indices[worst]) if worst_response and worst < len(indices) else None
        ),
    )


def wcirl_pass(
    program: Program,
    report: Report,
    config: AcceleratorConfig,
    layers: Mapping[int, "LayerConfig"],
    *,
    expect_interruptible: bool = False,
    max_response_cycles: int | None = None,
) -> StaticWcirl:
    """Compute the bound and check the WCL expectations against it."""
    bound = wcirl_bound(program, config, layers)
    if expect_interruptible and bound.switch_points == 0:
        report.add(
            "WCL001",
            f"program is expected to be interruptible but exposes no switch "
            f"point; a pending request waits the full {bound.total_cycles} "
            f"cycles",
            program=program.name,
            hint="run the VI pass (or the layer-by-layer fallback) so the IAU "
            "has somewhere to preempt",
        )
    if max_response_cycles is not None and (
        bound.worst_response_cycles > max_response_cycles
    ):
        where = (
            "the program end"
            if bound.worst_index is None
            else f"instruction [{bound.worst_index}]"
        )
        report.add(
            "WCL002",
            f"static WCIRL is {bound.worst_response_cycles} cycles (worst at "
            f"{where}) which exceeds the {max_response_cycles}-cycle budget",
            program=program.name,
            index=bound.worst_index,
            hint="add switch points inside the longest gap (smaller CalcBlobs "
            "or more VIR_SAVEs) or relax the response budget",
        )
    return bound
