"""Horizon-batched fast-path metadata for the IAU dispatch loop.

Timing-only experiments spend almost all their wall time in
``Iau.step()``'s per-instruction Python loop, even though on the
uninterrupted path every quantity that loop computes is a pure function of
the program: the cycle cost of each instruction, the DDR bursts it would
report, and the on-chip buffer bookkeeping it would leave behind.

:func:`build_program_meta` precomputes all of it once per
``(CompiledNetwork, Program)`` pair — cached on the compiled network, so
thousands of simulated runs over the same workload (interrupt-latency
sweeps, overload campaigns, design-space exploration) pay the O(n) walk a
single time:

* per-instruction cycle costs and their prefix sums (``cum``), so a whole
  stretch of instructions can be retired with one subtraction and the
  stop index found with one bisect against the arrival horizon;
* per-instruction event templates, so an armed :class:`~repro.obs.bus.EventBus`
  can be replayed the *identical* ``DDR_BURST``/``INSTR_RETIRE`` stream the
  step-wise path would have emitted;
* :class:`~repro.accel.core.CoreStats` prefix sums, so the aggregate counters
  advance exactly;
* *clean boundaries* — indices where the replayed core holds no in-flight
  accumulator or un-saved output section — with the data/weight tiles
  resident there, so the core's buffer bookkeeping can be fast-forwarded to
  any boundary and the step-wise path resumed seamlessly;
* per-:class:`~repro.faults.plan.FaultSite` *fault-opportunity prefix sums*
  (the static half of armed batching): how many Bernoulli draws the
  step-wise path performs at each site over any instruction span, so
  :meth:`ProgramMeta.stop_for_faults` can intersect a batch with the fault
  plan's fire oracle and :meth:`ProgramMeta.opportunity_counts` can burn the
  skipped non-firing draws afterwards (see ``docs/static-analysis.md``, the
  INT rule family).

``Iau.run_batched`` consumes this metadata; the equivalence contract
(cycle-exact and event-exact against ``step()``, disarmed and armed) is the
conformance matrix, ``tests/conformance.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from repro.accel.core import DataTile, WeightTile
from repro.faults.plan import FaultSite
from repro.hw.timing import fetch_cycles, kind_cycles
from repro.isa.instructions import FLAG_OPERAND_B, Instruction
from repro.isa.opcodes import Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork
    from repro.faults.plan import FaultPlan
    from repro.isa.program import Program

#: The fault sites whose draws are a pure function of the instruction
#: stream on the uninterrupted path — the ones armed batching must account
#: for.  Transfers draw one DDR stall and one DDR bit-flip check each;
#: switch-point virtuals draw one spurious-preempt check when no preemption
#: is pending (the batch regime).  The remaining sites only draw under
#: control flow the fast path already excludes: drop-preempt and
#: checkpoint-corrupt need a pending preemption, job-overrun fires at
#: switch-in (outside any batch), and the ROS sites live above the IAU.
BATCH_FAULT_SITES: tuple[FaultSite, ...] = (
    FaultSite.DDR_STALL,
    FaultSite.DDR_BIT_FLIP,
    FaultSite.IAU_SPURIOUS_PREEMPT,
)

#: Stretches shorter than this are not worth the batching overhead —
#: ``Iau.run_batched`` steps through them (and their bounding instruction)
#: instead, and the coverage statistics (INT005, ``stretch_coverage``)
#: count only stretches at or above it as batchable.
MIN_BATCH = 2

#: Event template of one real instruction: (layer_id, opcode name, exec
#: cycles, burst direction or None, burst region or None, burst bytes).
_EventSpec = tuple[int, str, int, str | None, str | None, int]

#: Resident-tile snapshot at a clean boundary.
_DataSpec = tuple[int, int, int, int, int, int]  # layer, row0, rows, ch0, chs, nbytes
_WeightSpec = tuple[int, int, int, int, int, int]  # layer, ch0, chs, in_ch0, in_chs, nbytes


class Stretch(NamedTuple):
    """One armed-safe stretch: the span between two adjacent clean boundaries.

    Within ``[start, stop)`` the only armed-feature interference is
    oracle-guarded fault draws (``opportunities``, keyed by
    :class:`FaultSite` value) — no preemption can engage, no checkpoint is
    taken, and every monitor-visible event template is cycle-monotonic, so
    a batch proven draw-free by the fire oracle retires the span with
    behaviour bit-identical to ``step()``.
    """

    start: int
    stop: int
    opportunities: dict[str, int]

    @property
    def length(self) -> int:
        return self.stop - self.start


def fault_surface(instruction: Instruction) -> tuple[FaultSite, ...]:
    """The :class:`FaultSite`\\ s that can host a fault at ``instruction``.

    The static interference classification (rule ``INT004``): DDR stalls and
    bit flips only on transfer instructions, dropped/spurious preemptions
    only at switch points, checkpoint corruption only at a switch-point
    ``VIR_SAVE``.  Job overruns (switch-in) and the ROS sites are not
    instruction-hosted and never appear here.
    """
    if instruction.is_virtual:
        if not instruction.is_switch_point:
            return ()
        if instruction.opcode is Opcode.VIR_SAVE:
            return (
                FaultSite.IAU_DROP_PREEMPT,
                FaultSite.IAU_SPURIOUS_PREEMPT,
                FaultSite.CHECKPOINT_CORRUPT,
            )
        return (FaultSite.IAU_DROP_PREEMPT, FaultSite.IAU_SPURIOUS_PREEMPT)
    if instruction.opcode in (Opcode.LOAD_D, Opcode.LOAD_W):
        return (FaultSite.DDR_STALL, FaultSite.DDR_BIT_FLIP)
    if instruction.opcode is Opcode.SAVE and instruction.chs:
        return (FaultSite.DDR_STALL, FaultSite.DDR_BIT_FLIP)
    return ()


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


@dataclass
class _StatsPrefix:
    """Prefix sums of every :class:`CoreStats` counter (length n+1 each)."""

    instructions: list[int]
    cycles: list[int]
    load_cycles: list[int]
    calc_cycles: list[int]
    save_cycles: list[int]
    bytes_loaded: list[int]
    bytes_saved: list[int]


class ProgramMeta:
    """Precomputed execution metadata of one program on one accelerator."""

    def __init__(
        self,
        fetch: int,
        cum: list[int],
        stats: _StatsPrefix,
        events: list[_EventSpec | None],
        boundaries: list[int],
        boundary_tiles: dict[int, tuple[tuple[tuple[int, _DataSpec], ...], _WeightSpec | None]],
        opportunities: dict[str, list[int]],
    ) -> None:
        self.fetch = fetch
        #: ``cum[j]`` — cycles elapsed (fetch + execute of instructions
        #: ``[0, j)``) when instruction ``j`` is about to be fetched.
        self.cum = cum
        self.stats = stats
        self.events = events
        #: Sorted indices where the core holds no accumulator / output
        #: section; a batch may end at any of them.
        self.boundaries = boundaries
        self._boundary_tiles = boundary_tiles
        #: Per-:class:`FaultSite` (keyed by ``site.value``) prefix sums of
        #: the Bernoulli draws ``step()`` performs on the uninterrupted
        #: armed path: ``opportunities[site][j]`` draws happen over
        #: instructions ``[0, j)``.  Length n+1 each, like :attr:`cum`.
        self.opportunities = opportunities

    @property
    def total_cycles(self) -> int:
        """Cycles of one uninterrupted job (== the admission estimate)."""
        return self.cum[-1]

    def stop_for_horizon(self, start: int, base: int, horizon: int | None) -> int:
        """First index ``>= start`` whose loop-top clock reaches ``horizon``.

        ``base`` is the absolute clock minus ``cum[start]``; with no horizon
        the whole remaining program is batchable.
        """
        n = len(self.cum) - 1
        if horizon is None:
            return n
        return bisect_left(self.cum, horizon - base, start, n)

    def boundary_at_or_before(self, index: int) -> int:
        """Largest clean boundary ``<= index`` (-1 when there is none)."""
        pos = bisect_right(self.boundaries, index) - 1
        return self.boundaries[pos] if pos >= 0 else -1

    def stop_for_faults(self, start: int, plan: "FaultPlan") -> int:
        """Largest stop index from ``start`` provably free of fault fires.

        For every armed batch-regime site, asks the plan's fire oracle how
        many upcoming draws are guaranteed non-fires and converts that draw
        budget back to an instruction index via the opportunity prefix sums:
        a batch ``[start, stop)`` consumes ``opp[stop] - opp[start]`` draws
        at each site, so the instruction hosting the first possible fire is
        excluded.  Sites at rate 0 never constrain (the oracle returns the
        full limit without peeking).
        """
        n = len(self.cum) - 1
        stop = n
        for value, opp in self.opportunities.items():
            limit = opp[n] - opp[start]
            if limit <= 0:
                continue
            safe = plan.safe_draws(FaultSite(value), limit)
            if safe >= limit:
                continue
            # Largest index whose prefix count stays within the safe budget.
            stop = min(stop, bisect_right(opp, opp[start] + safe) - 1)
        return stop

    def opportunity_counts(self, start: int, stop: int) -> dict[FaultSite, int]:
        """Per-site draw counts of the batch ``[start, stop)``.

        ``Iau.run_batched`` burns exactly these (known-safe) draws after an
        armed batch so every site's RNG stream lands on the position the
        step-wise path would have reached.
        """
        return {
            FaultSite(value): opp[stop] - opp[start]
            for value, opp in self.opportunities.items()
        }

    def stretches(self) -> Iterator[Stretch]:
        """The armed-safe stretch table: adjacent clean-boundary spans.

        Every span is free of preemption-capable control flow by
        construction (a batch never crosses a fire or an arrival, and no
        task switch can engage mid-span), so the only interference left
        inside is the per-site draw counts reported on each
        :class:`Stretch`.
        """
        for start, stop in zip(self.boundaries, self.boundaries[1:]):
            yield Stretch(
                start=start,
                stop=stop,
                opportunities={
                    value: opp[stop] - opp[start]
                    for value, opp in self.opportunities.items()
                },
            )

    def batch_stats(self, start: int, stop: int) -> dict[str, int]:
        """Aggregate :class:`CoreStats` deltas over ``[start, stop)``."""
        s = self.stats
        return {
            "instructions": s.instructions[stop] - s.instructions[start],
            "cycles": s.cycles[stop] - s.cycles[start],
            "load_cycles": s.load_cycles[stop] - s.load_cycles[start],
            "calc_cycles": s.calc_cycles[stop] - s.calc_cycles[start],
            "save_cycles": s.save_cycles[stop] - s.save_cycles[start],
            "bytes_loaded": s.bytes_loaded[stop] - s.bytes_loaded[start],
            "bytes_saved": s.bytes_saved[stop] - s.bytes_saved[start],
        }

    def tiles_at(self, boundary: int) -> tuple[dict[int, DataTile], WeightTile | None]:
        """Fresh timing-only tile objects resident at a clean boundary."""
        data_specs, weight_spec = self._boundary_tiles[boundary]
        data_tiles = {
            slot: DataTile(
                layer_id=spec[0],
                row0=spec[1],
                rows=spec[2],
                ch0=spec[3],
                chs=spec[4],
                nbytes=spec[5],
                array=None,
            )
            for slot, spec in data_specs
        }
        weight_tile = None
        if weight_spec is not None:
            weight_tile = WeightTile(
                layer_id=weight_spec[0],
                ch0=weight_spec[1],
                chs=weight_spec[2],
                in_ch0=weight_spec[3],
                in_chs=weight_spec[4],
                nbytes=weight_spec[5],
                array=None,
            )
        return data_tiles, weight_tile


def _kind_template(
    compiled: "CompiledNetwork", instruction: Instruction, cycles: int
) -> tuple[_EventSpec | None, tuple[FaultSite, ...]]:
    """``(event template, batch draws)`` of one instruction costing
    ``cycles`` — a function of its opcode, layer, length, ``chs != 0`` and
    the operand-B / switch-point flags only, which is what
    :func:`build_program_meta` keys its per-kind table on
    (:meth:`Program.kinds`)."""
    layer = compiled.layer_config(instruction.layer_id)
    draws = batch_draws(instruction)
    if instruction.is_virtual:
        # Discarded after the fetch: no event, no stats, no bookkeeping.
        return None, draws
    opcode = instruction.opcode
    burst: tuple[str | None, str | None, int] = (None, None, 0)
    if opcode == Opcode.LOAD_D:
        region = layer.input2_region if instruction.operand_b else layer.input_region
        burst = ("load", region, instruction.length)
    elif opcode == Opcode.LOAD_W:
        burst = ("load", layer.weight_region, instruction.length)
    elif opcode == Opcode.SAVE and instruction.chs:
        burst = ("save", layer.output_region, instruction.length)
    return (instruction.layer_id, opcode.name, cycles, *burst), draws


def _prefix(values: np.ndarray) -> list[int]:
    """Prefix sums of one per-instruction column: length n+1, plain ints,
    one shared int object per run of equal sums (most counters move at a
    few opcodes only, and a 100k-entry list of distinct ints is 3 MiB)."""
    sums = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    starts = np.flatnonzero(np.concatenate(([True], sums[1:] != sums[:-1])))
    distinct = np.array(sums[starts].tolist(), dtype=object)
    shared: list[int] = np.repeat(distinct, np.diff(np.append(starts, len(sums)))).tolist()
    return shared


def build_program_meta(compiled: "CompiledNetwork", program: "Program") -> ProgramMeta:
    """Precompute ``program``'s step-wise timing and bookkeeping from its
    word columns.

    The replay assumes the uninterrupted path (virtual instructions are
    discarded after their fetch) — exactly the regime ``run_batched``
    restricts itself to.  Cycles (:func:`repro.hw.timing.kind_cycles`),
    event templates and fault draws (:func:`_kind_template`) come from a
    table with one row per instruction *kind* — ``step()`` calls neither;
    ``tests/test_pricing_agreement.py`` and the conformance matrix's armed
    cells hold them to the core's prices and draws — and every prefix sum
    is one ``cumsum`` of a column gathered from it.
    """
    words = program.words
    opcode, layer_id = words["opcode"], words["layer_id"]
    length = words["length"].astype(np.int64)
    has_chs = words["chs"] != 0
    operand_b = (words["flags"] & FLAG_OPERAND_B) != 0
    priced = kind_cycles(compiled.config, compiled.layer_config, program)
    inverse = priced.inverse
    table = [
        _kind_template(compiled, program[index], price)
        for index, price in zip(priced.first.tolist(), priced.cycles.tolist())
    ]
    cycles = priced.cycles[inverse]
    events = [table[row][0] for row in inverse.tolist()]

    fetch = fetch_cycles(compiled.config)
    is_load = (opcode == Opcode.LOAD_D) | (opcode == Opcode.LOAD_W)
    is_calc = (opcode == Opcode.CALC_I) | (opcode == Opcode.CALC_F)
    is_save = (opcode == Opcode.SAVE) & has_chs  # a fully pre-saved SAVE moves nothing
    stats = _StatsPrefix(
        instructions=_prefix(~program.virtual_mask),
        cycles=_prefix(cycles),
        load_cycles=_prefix(cycles * is_load),
        calc_cycles=_prefix(cycles * is_calc),
        save_cycles=_prefix(cycles * is_save),
        bytes_loaded=_prefix(length * is_load),
        bytes_saved=_prefix(length * is_save),
    )
    opportunities = {
        site.value: _prefix(np.array([site in row[1] for row in table])[inverse])
        for site in BATCH_FAULT_SITES
    }

    # Replayed on-chip bookkeeping (timing-only: descriptors, no arrays):
    # a boundary is clean when no accumulator and no un-saved output
    # section is in flight; the resident tiles are snapshotted there.
    is_conv = {
        config.layer_id: config.kind == "conv" for config in compiled.layer_configs
    }
    load_d, load_w = int(Opcode.LOAD_D), int(Opcode.LOAD_W)
    calc_i, calc_f, save = int(Opcode.CALC_I), int(Opcode.CALC_F), int(Opcode.SAVE)
    data_tiles: dict[int, _DataSpec] = {}
    weight: _WeightSpec | None = None
    tiles: tuple[tuple[tuple[int, _DataSpec], ...], _WeightSpec | None] = ((), None)
    accumulating = False
    section: tuple[int, int, int] | None = None  # (layer, row0, rows) being finalized
    unsaved: list[int] = []  # ch0 of each finalized, un-saved channel group
    boundaries = [0]
    boundary_tiles = {0: tiles}
    columns = [opcode, layer_id, operand_b] + [
        words[name] for name in ("row0", "rows", "ch0", "chs", "in_ch0", "in_chs", "length")
    ]
    walk = chain.from_iterable(  # column lists, a chunk at a time: bounded transient
        zip(*(column[start : start + 8192].tolist() for column in columns))
        for start in range(0, len(words), 8192)
    )
    for j, (op, layer, second, row0, rows, ch0, chs, in_ch0, in_chs, nbytes) in enumerate(walk):
        if op == load_d:
            for slot in [s for s, tile in data_tiles.items() if tile[0] != layer]:
                del data_tiles[slot]
            data_tiles[1 if second else 0] = (layer, row0, rows, ch0, chs, nbytes)
            tiles = (tuple(sorted(data_tiles.items())), weight)
        elif op == load_w:
            weight = (layer, ch0, chs, in_ch0, in_chs, nbytes)
            tiles = (tuple(sorted(data_tiles.items())), weight)
        elif op == calc_i or op == calc_f:
            conv = is_conv[layer]
            if conv and in_ch0 == 0:
                accumulating = True
            if op == calc_f or not conv:  # non-conv kinds never hold an accumulator
                if section != (layer, row0, rows):
                    section, unsaved = (layer, row0, rows), []
                unsaved.append(ch0)
                if conv:
                    accumulating = False
        elif op == save and chs and section is not None:
            unsaved = [c for c in unsaved if not ch0 <= c < ch0 + chs]
            if not unsaved:
                section = None
        if not accumulating and section is None:
            boundaries.append(j + 1)
            boundary_tiles[j + 1] = tiles

    return ProgramMeta(
        fetch,
        _prefix(cycles + fetch),
        stats,
        events,
        boundaries,
        boundary_tiles,
        opportunities,
    )
