"""Static interference analysis of armed-safe stretches (INT001-INT005).

The armed fast path (``Iau.run_batched`` with a fault plan and/or the
runtime :class:`~repro.qos.monitor.InvariantMonitor` attached) retires
whole spans of instructions at once instead of stepping them.  Its
bit-exactness contract rests on static claims about each program and the
:class:`~repro.iau.fastpath.ProgramMeta` precomputed from it; this pass
proves those claims per compiled variant:

* **INT001** — the meta's per-site *fault-opportunity* prefix sums account
  for exactly the Bernoulli draws the step-wise path performs on the
  uninterrupted armed path.  An under-count would let a batch sail past a
  fire; an over-count would desynchronize every later draw at that site.
* **INT002** — within every stretch the replayed monitor-visible event
  stream (``DDR_BURST``/``INSTR_RETIRE`` templates) is cycle-monotonic and
  every burst carries its region, so the monitor checks a replayed stretch
  exactly as it checks a stepped one.
* **INT003** — every stretch ends at a *clean* boundary: no CalcBlob
  accumulator and no finalized-but-unsaved output section in flight, and
  the tile descriptors the meta would install there are the ones resident,
  so a later ``step()`` resumes on exactly the state it expects.
* **INT004** — the per-instruction fault-surface classification is
  consistent with the instruction fields: checkpoint corruption only at a
  switch-point ``VIR_SAVE``, preemption glitches only at switch points,
  DDR faults only on real transfers, and every draw the armed step path
  performs stays inside the declared surface.
* **INT005** — the program keeps enough armed-stretch coverage for
  batching to pay off (a warning below the floor, never an error).

Neither INT001 nor INT003 takes :func:`~repro.iau.fastpath.build_program_meta`'s
bookkeeping on trust: INT001 recounts instruction by instruction with
:func:`~repro.iau.fastpath.batch_draws` (``step()`` draws in ``Ddr`` and
``Iau._handle_virtual`` instead; the conformance matrix's armed cells tie
the two), and INT003's ground truth is the core's own buffer machine (the
:data:`~repro.verify.bufferflow.Replay` of each variant), so a drift between
builder and runtime is a named diagnostic, not a silent bit-divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.faults.plan import FaultSite
from repro.iau.fastpath import (
    BATCH_FAULT_SITES,
    MIN_BATCH,
    ProgramMeta,
    batch_draws,
    fault_surface,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.bufferflow import Replay
from repro.verify.diagnostics import Report, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> isa)
    from repro.compiler.compile import CompiledNetwork

#: Sites a DDR transfer hosts.
_DDR_SITES = (FaultSite.DDR_STALL, FaultSite.DDR_BIT_FLIP)

#: Sites that are never hosted by an instruction (they fire at switch-in or
#: above the IAU) and therefore must never appear in a fault surface.
_NEVER_HOSTED = (FaultSite.JOB_OVERRUN, FaultSite.ROS_DROP, FaultSite.ROS_DELAY)

#: Below this armed-stretch coverage, batching degenerates to stepping for
#: most of the program (INT005 warns; it never fails a build).
COVERAGE_FLOOR = 0.5


@dataclass(frozen=True)
class StretchCoverage:
    """Armed-stretch coverage statistics of one program variant."""

    program: str
    instructions: int
    stretches: int
    #: Stretches long enough for ``run_batched`` to engage (>= MIN_BATCH).
    batchable_stretches: int
    #: Instructions inside batchable stretches.
    covered_instructions: int
    #: Total armed-path Bernoulli draws per site value over the program.
    draws: dict[str, int]

    @property
    def coverage(self) -> float:
        """Fraction of instructions the armed fast path can batch."""
        if not self.instructions:
            return 1.0
        return self.covered_instructions / self.instructions

    def to_json(self) -> dict[str, Any]:
        return {
            "instructions": self.instructions,
            "stretches": self.stretches,
            "batchable_stretches": self.batchable_stretches,
            "covered_instructions": self.covered_instructions,
            "coverage": round(self.coverage, 4),
            "draws": dict(self.draws),
        }


def stretch_coverage(compiled: "CompiledNetwork", vi_mode: str = "vi") -> StretchCoverage:
    """Armed-stretch coverage of one variant of a compiled network."""
    program = compiled.program_for(vi_mode)
    meta = compiled.execution_meta(program)
    return _coverage(program, meta)


def interference_pass(
    compiled: "CompiledNetwork", report: Report, replays: Mapping[str, Replay]
) -> None:
    """Run INT001-INT005 over every program variant of ``compiled``;
    ``replays`` holds each variant's replay record, keyed by vi-mode."""
    for vi_mode, program in compiled.programs.items():
        meta = compiled.execution_meta(program)
        _opportunity_accounting(program, meta, report)
        _monitor_stream(program, meta, report)
        _boundaries(program, meta, replays[vi_mode], report)
        _surfaces(program, report)
        _coverage_floor(program, meta, report)


# -- INT001: fault-opportunity accounting ------------------------------------


def _opportunity_accounting(program: Program, meta: ProgramMeta, report: Report) -> None:
    n = len(program)
    expected = {site.value for site in BATCH_FAULT_SITES}
    tracked = set(meta.opportunities)
    for value in sorted(tracked - expected):
        report.add(
            "INT001",
            f"opportunity table tracks {value!r}, which is not a batch-regime site",
            program=program.name,
            hint="BATCH_FAULT_SITES is the closed set the armed step path draws from",
        )
    for value in sorted(expected - tracked):
        report.add(
            "INT001",
            f"opportunity table is missing site {value!r} — a batch could sail "
            f"past one of its fires",
            program=program.name,
            hint="rebuild the ProgramMeta; stale caches are rejected by the "
            "compile-cache format version",
        )
    tables = {FaultSite(value): meta.opportunities[value] for value in sorted(expected & tracked)}
    sized = {site: opp for site, opp in tables.items() if len(opp) == n + 1}
    drift: dict[FaultSite, int] = {}  # site -> first index its table gets wrong
    for index, instruction in enumerate(program):  # one walk, every site
        draws = batch_draws(instruction)
        for site, opp in sized.items():
            if site not in drift and opp[index + 1] - opp[index] != draws.count(site):
                drift[site] = index
    for site, opp in tables.items():
        value = site.value
        if len(opp) != n + 1:
            report.add(
                "INT001",
                f"opportunity prefix sums for {value} have length {len(opp)}, "
                f"expected {n + 1}",
                program=program.name,
            )
        elif site in drift:  # one finding per site localizes the drift
            index = drift[site]
            want = batch_draws(program[index]).count(site)
            got = opp[index + 1] - opp[index]
            report.add(
                "INT001",
                f"{program[index].opcode.name} draws {want}x {value} on the "
                f"armed step path but the table accounts {got}",
                program=program.name,
                index=index,
                hint="run_batched burns exactly the table's draws after a "
                "batch; any mismatch desynchronizes the site's RNG stream",
            )


# -- INT002: monitor-visible stream inside a stretch -------------------------


def _monitor_stream(program: Program, meta: ProgramMeta, report: Report) -> None:
    for start, stop in zip(meta.boundaries, meta.boundaries[1:]):
        floor: int | None = None
        for index in range(start, stop):
            spec = meta.events[index]
            if spec is None:
                continue  # a discarded virtual instruction emits nothing
            _layer, opcode_name, cycles, direction, region, _nbytes = spec
            cycle = meta.cum[index] + meta.fetch
            end = cycle + cycles
            if cycles < 0 or (floor is not None and end < floor):
                report.add(
                    "INT002",
                    f"{opcode_name} template ends at cycle {end}, behind the "
                    f"stretch floor {floor} — the replayed stream would trip "
                    f"the monitor's cycle-monotonicity check",
                    program=program.name,
                    index=index,
                )
            if direction is not None and region is None:
                report.add(
                    "INT002",
                    f"{opcode_name} burst template carries no DDR region — "
                    f"the monitor could not check its region ownership",
                    program=program.name,
                    index=index,
                )
            floor = cycle if floor is None else max(floor, cycle)


# -- INT003: stretches end at clean boundaries -------------------------------


def _boundaries(program: Program, meta: ProgramMeta, replay: Replay, report: Report) -> None:
    n = len(program)
    boundaries = meta.boundaries
    if list(boundaries) != sorted(set(boundaries)):
        report.add(
            "INT003",
            "boundary table is not strictly increasing",
            program=program.name,
        )
        return
    for boundary in boundaries:
        if boundary not in replay:
            problem = (
                "is not clean — an accumulator or unsaved output section is in "
                "flight, so a batch ending there would desynchronize the core"
            )
        elif meta.tiles_at(boundary) != replay[boundary]:
            problem = (
                "records tiles the buffer machine does not hold resident there — "
                "retire_batch would leave a core that step() would not have produced"
            )
        else:
            continue
        report.add(
            "INT003",
            f"stretch boundary at index {boundary} {problem}",
            program=program.name,
            index=min(boundary, n - 1),
        )
    for index in sorted(replay.keys() - set(boundaries)):
        report.add(
            "INT003",
            f"clean index {index} is missing from the boundary table — armed "
            f"batches end earlier than the program allows",
            severity=Severity.WARNING,
            program=program.name,
            index=min(index, n - 1),
        )


# -- INT004: fault-site eligibility ------------------------------------------


def _surfaces(program: Program, report: Report) -> None:
    for index, instruction in enumerate(program):
        surface = fault_surface(instruction)
        draws = batch_draws(instruction)
        opcode = instruction.opcode

        outside = set(draws) - set(surface)
        if outside:
            report.add(
                "INT004",
                f"{opcode.name} draws at "
                f"{sorted(site.value for site in outside)} outside its "
                f"declared fault surface",
                program=program.name,
                index=index,
            )
        for site in _NEVER_HOSTED:
            if site in surface:
                report.add(
                    "INT004",
                    f"{site.value} is not instruction-hosted but appears in "
                    f"the surface of {opcode.name}",
                    program=program.name,
                    index=index,
                )

        is_transfer = opcode in (Opcode.LOAD_D, Opcode.LOAD_W) or (
            opcode is Opcode.SAVE and bool(instruction.chs)
        )
        for site in _DDR_SITES:
            if (site in surface) != is_transfer:
                report.add(
                    "INT004",
                    f"{opcode.name} {'is' if is_transfer else 'is not'} a DDR "
                    f"transfer but its surface "
                    f"{'omits' if is_transfer else 'includes'} {site.value}",
                    program=program.name,
                    index=index,
                )

        at_switch = instruction.is_virtual and instruction.is_switch_point
        for site in (FaultSite.IAU_DROP_PREEMPT, FaultSite.IAU_SPURIOUS_PREEMPT):
            if (site in surface) != at_switch:
                report.add(
                    "INT004",
                    f"{opcode.name} {'is' if at_switch else 'is not'} a switch "
                    f"point but its surface "
                    f"{'omits' if at_switch else 'includes'} {site.value}",
                    program=program.name,
                    index=index,
                )

        hosts_checkpoint = at_switch and opcode is Opcode.VIR_SAVE
        if (FaultSite.CHECKPOINT_CORRUPT in surface) != hosts_checkpoint:
            report.add(
                "INT004",
                f"checkpoint corruption can only occur at a switch-point "
                f"VIR_SAVE, but {opcode.name} "
                f"{'omits' if hosts_checkpoint else 'includes'} it",
                program=program.name,
                index=index,
            )


# -- INT005: armed-stretch coverage ------------------------------------------


def _coverage(program: Program, meta: ProgramMeta) -> StretchCoverage:
    n = len(program)
    lengths = [stop - start for start, stop in zip(meta.boundaries, meta.boundaries[1:])]
    batchable = [length for length in lengths if length >= MIN_BATCH]
    return StretchCoverage(
        program=program.name,
        instructions=n,
        stretches=len(lengths),
        batchable_stretches=len(batchable),
        covered_instructions=sum(batchable),
        draws={value: opp[n] - opp[0] for value, opp in meta.opportunities.items()},
    )


def _coverage_floor(program: Program, meta: ProgramMeta, report: Report) -> None:
    coverage = _coverage(program, meta)
    if coverage.instructions and coverage.coverage < COVERAGE_FLOOR:
        report.add(
            "INT005",
            f"armed-stretch coverage {coverage.coverage:.0%} is below the "
            f"{COVERAGE_FLOOR:.0%} floor "
            f"({coverage.covered_instructions}/{coverage.instructions} "
            f"instructions in batchable stretches)",
            severity=Severity.WARNING,
            program=program.name,
            hint="most of this program steps instruction-by-instruction even "
            "when armed; check the schedule for long in-flight output sections",
        )
