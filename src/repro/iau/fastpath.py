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
  plan's fire oracle, :meth:`ProgramMeta.stall_fires` can place the
  ``ddr.stall`` fires retired inside it, and
  :meth:`ProgramMeta.opportunity_counts` can burn the covered draws
  afterwards (see ``docs/static-analysis.md``, the INT rule family).

:class:`RegionTouches` adds the one dynamic bound: where a program next
touches a DDR region holding a pending ECC flip.

``Iau.run_batched`` consumes this metadata; the equivalence contract
(cycle-exact and event-exact against ``step()``, disarmed and armed) is the
conformance matrix, ``tests/conformance.py``.
"""

from __future__ import annotations

import pickle
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import TYPE_CHECKING, Any, Final
from weakref import WeakKeyDictionary

import numpy as np

from repro.accel.core import (
    STAT_NAMES,
    BoundaryTiles,
    DataSpec,
    DataTile,
    TileSpecs,
    WeightSpec,
    WeightTile,
    resident_tiles,
)
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

_STALL = FaultSite.DDR_STALL.value

#: Stretches shorter than this are not worth the batching overhead —
#: ``Iau.run_batched`` steps through them (and their bounding instruction)
#: instead, and the coverage statistics (INT005, ``stretch_coverage``)
#: count only stretches at or above it as batchable.
MIN_BATCH = 2

#: Event template of one real instruction: (layer_id, opcode name, exec
#: cycles, burst direction or None, burst region or None, burst bytes).
_EventSpec = tuple[int, str, int, str | None, str | None, int]

#: A priced stretch: its cycles, its :class:`~repro.accel.core.CoreStats`
#: delta (one int per :data:`~repro.accel.core.STAT_NAMES` entry) and the
#: tiles resident at its end.
Stretch = tuple[int, tuple[int, ...], BoundaryTiles]

#: Stretches one :class:`ProgramMeta` keeps priced, newest first out.  A
#: farm node replays a few stretches per program for every job (one on a
#: static day, at most 66 across a resilient day's epochs), while an armed
#: run cuts stretches at its fault draws, which repeat only when the same
#: seeded run is replayed; the bound covers the first and caps the second.
STRETCH_MEMO = 256

#: Typecode of every integer column of a :class:`ProgramMeta`: one
#: contiguous int64 buffer, and each scalar read a plain ``int``.
COLUMN: Final = "q"


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


def _pack(column: "array[int]") -> tuple[str, bytes]:
    """``column`` as its deltas in the narrowest dtype that holds them: a
    prefix column moves by a few bits per instruction."""
    deltas = np.diff(np.frombuffer(column, dtype=np.int64), prepend=0)
    low, high = (int(deltas.min()), int(deltas.max())) if len(deltas) else (0, 0)
    dtype = next(
        kind for kind in ("u1", "i1", "u2", "i2", "u4", "i4", "i8")
        if np.iinfo(kind).min <= low and high <= np.iinfo(kind).max
    )
    return dtype, deltas.astype(dtype).tobytes()


def _unpack(packed: tuple[str, bytes]) -> "array[int]":
    dtype, raw = packed
    return array(COLUMN, np.cumsum(np.frombuffer(raw, dtype), dtype=np.int64).tobytes())


class ProgramMeta:
    """Precomputed execution metadata of one program on one accelerator.

    Every integer column is a :data:`COLUMN` ``array``; it pickles as one
    narrow delta buffer per column (:func:`_pack`), and the event templates
    and the tile table as one pickle each, which is how the compile cache
    stores them.  A load decodes only :attr:`cum` (what a cycle estimate
    reads); everything else stays packed until its first read.  Derived
    attributes (:attr:`length`, the stretch memo) are rebuilt on load and
    never pickled.
    """

    #: Integer columns, tables of them keyed by name, and lists of records,
    #: each pickled packed.
    _COLUMNS = ("cum", "boundaries", "_tile_ids")
    _TABLES = ("stats", "opportunities")
    _RECORDS = ("events", "_tiles")
    #: What a load leaves packed in :attr:`_packed`, decoded on first read.
    _LAZY = ("boundaries", "_tile_ids", *_TABLES, *_RECORDS)
    _DERIVED = ("length", "_stretches", "_shared", "_packed")

    def __init__(
        self,
        fetch: int,
        cum: "array[int]",
        stats: dict[str, "array[int]"],
        events: list[_EventSpec | None],
        boundaries: "array[int]",
        tile_ids: "array[int]",
        tiles: list[TileSpecs],
        opportunities: dict[str, "array[int]"],
    ) -> None:
        self.fetch = fetch
        #: ``cum[j]`` — cycles elapsed (fetch + execute of instructions
        #: ``[0, j)``) when instruction ``j`` is about to be fetched.
        self.cum = cum
        #: Prefix sums of every :class:`CoreStats` counter, keyed by name.
        self.stats = stats
        self.events = events
        #: Sorted indices where the core holds no accumulator / output
        #: section; a batch may end at any of them.
        self.boundaries = boundaries
        #: ``_tiles[_tile_ids[k]]`` is resident at ``boundaries[k]``.
        self._tile_ids = tile_ids
        self._tiles = tiles
        #: Per-:class:`FaultSite` (keyed by ``site.value``) prefix sums of
        #: the Bernoulli draws ``step()`` performs on the uninterrupted
        #: armed path: ``opportunities[site][j]`` draws happen over
        #: instructions ``[0, j)``.  Length n+1 each, like :attr:`cum`.
        self.opportunities = opportunities
        #: Name -> packed form of each :data:`_LAZY` attribute not yet
        #: decoded (empty unless loaded).
        self._packed: dict[str, Any] = {}
        self._derive()

    def _derive(self) -> None:
        #: Instructions in the program (the batch path never asks the
        #: :class:`~repro.isa.program.Program`).
        self.length = len(self.cum) - 1
        #: ``(start, stop)`` -> :data:`Stretch`, at most :data:`STRETCH_MEMO`.
        self._stretches: dict[tuple[int, int], Stretch] = {}
        #: Tile id -> the shared descriptors of ``_tiles[id]``, built on
        #: first use (:meth:`stretch`).
        self._shared: dict[int, BoundaryTiles] = {}

    def __getstate__(self) -> dict[str, Any]:
        state = {key: value for key, value in vars(self).items() if key not in self._DERIVED}
        for name in self._COLUMNS:
            if name in state:
                state[name] = _pack(state[name])
        for name in self._TABLES:
            if name in state:
                state[name] = {key: _pack(column) for key, column in state[name].items()}
        for name in self._RECORDS:
            if name in state:
                state[name] = pickle.dumps(state[name], pickle.HIGHEST_PROTOCOL)
        # What was never decoded travels exactly as it arrived.
        return {**self._packed, **state}

    def __setstate__(self, state: dict[str, Any]) -> None:
        state["cum"] = _unpack(state["cum"])
        state["_packed"] = {name: state.pop(name) for name in self._LAZY}
        vars(self).update(state)
        self._derive()

    if not TYPE_CHECKING:  # the attributes are declared in ``__init__``

        def __getattr__(self, name: str) -> Any:
            # Reached only for an attribute that is not set: a :data:`_LAZY`
            # one a load left packed.  Decoded once, then an ordinary attribute.
            packed = vars(self).get("_packed", {})
            if name not in packed:
                raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
            raw = packed[name]
            if name in self._TABLES:
                value = {key: _unpack(column) for key, column in raw.items()}
            elif name in self._RECORDS:
                value = pickle.loads(raw)
            else:
                value = _unpack(raw)
            setattr(self, name, value)
            packed.pop(name, None)
            return value

    @property
    def total_cycles(self) -> int:
        """Cycles of one uninterrupted job (== the admission estimate)."""
        return self.cum[-1]

    def stop_for_horizon(self, start: int, base: int, horizon: int | None) -> int:
        """First index ``>= start`` whose loop-top clock reaches ``horizon``.

        ``base`` is the absolute clock minus ``cum[start]``; with no horizon
        the whole remaining program is batchable.
        """
        n = self.length
        if horizon is None:
            return n
        return bisect_left(self.cum, horizon - base, start, n)

    def boundary_at_or_before(self, index: int) -> int:
        """Largest clean boundary ``<= index`` (-1 when there is none)."""
        pos = bisect_right(self.boundaries, index) - 1
        return self.boundaries[pos] if pos >= 0 else -1

    def stop_for_faults(self, start: int, plan: "FaultPlan") -> int:
        """Largest stop index from ``start`` provably free of fires that end
        a batch (every batch-regime site but ``ddr.stall``, which
        :meth:`stall_fires` prices instead).

        For each such site, asks the plan's fire oracle how many upcoming
        draws are guaranteed non-fires and converts that draw budget back
        to an instruction index via the opportunity prefix sums: a batch
        ``[start, stop)`` consumes ``opp[stop] - opp[start]`` draws at each
        site, so the instruction hosting the first possible fire is
        excluded.  Sites at rate 0 never constrain (the oracle returns the
        full limit without drawing).
        """
        n = self.length
        stop = n
        for value, opp in self.opportunities.items():
            if value == _STALL:
                continue
            limit = opp[n] - opp[start]
            if limit <= 0:
                continue
            safe = plan.safe_draws(FaultSite(value), limit)
            if safe >= limit:
                continue
            # Largest index whose prefix count stays within the safe budget.
            stop = min(stop, bisect_right(opp, opp[start] + safe) - 1)
        return stop

    def stall_fires(
        self, start: int, stop: int, base: int, horizon: int | None, plan: "FaultPlan"
    ) -> tuple[int, list[int]]:
        """The ``ddr.stall`` fires of the batch ``[start, stop)``, retired
        inside it as priced events: ``(stop, fires)``.

        ``fires`` are the indices of the instructions hosting a firing
        stall draw (the oracle's :meth:`~repro.faults.plan.FaultPlan.fire_offsets`,
        mapped through the opportunity prefix sums).  Each adds
        ``plan.ddr_stall_cycles`` to its instruction and shifts every later
        one, so the horizon bound is recomputed past each fire: the
        returned ``stop`` is at most ``stop``, and ``fires`` lists only the
        fires before it.  ``base`` is as for :meth:`stop_for_horizon`.
        """
        opp = self.opportunities[_STALL]
        offsets = plan.fire_offsets(FaultSite.DDR_STALL, opp[stop] - opp[start])
        fires: list[int] = []
        lo, shift = start, 0
        for offset in offsets:
            fire = bisect_right(opp, opp[start] + offset) - 1
            if horizon is not None:
                # Instructions before ``lo`` start before the horizon already.
                reach = bisect_left(self.cum, horizon - base - shift, lo, stop)
                if reach <= fire:
                    return reach, fires
            fires.append(fire)
            lo, shift = fire + 1, shift + plan.ddr_stall_cycles
        if horizon is not None and fires:
            stop = bisect_left(self.cum, horizon - base - shift, lo, stop)
        return stop, fires

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

    def transfer(self, index: int) -> tuple[str, str]:
        """``(direction, region)`` of the DDR burst instruction ``index``
        makes (a load or a moving save: where ``ddr.stall`` draws)."""
        spec = self.events[index]
        assert spec is not None and spec[3] is not None and spec[4] is not None
        return spec[3], spec[4]

    def stretch(self, start: int, stop: int) -> Stretch:
        """``(cycles, stats delta, resident tile specs)`` of the batch
        ``[start, stop)`` ending at the clean boundary ``stop``.

        Priced once and kept: a farm node retires the same whole-program
        stretch for every job.  The memo keeps the newest
        :data:`STRETCH_MEMO` stretches.  Besides ints it holds the
        boundary's shared tile descriptors, one set per distinct tile set
        of the program, which only a timing-only core installs and which
        no core writes (:class:`~repro.accel.core.BoundaryTiles`).
        """
        memo = self._stretches
        key = (start, stop)
        priced = memo.get(key)
        if priced is None:
            if len(memo) >= STRETCH_MEMO:
                del memo[next(iter(memo))]
            stats = self.stats
            tile_id = self._tile_id(stop)
            shared = self._shared.get(tile_id)
            if shared is None:
                specs = self._tiles[tile_id]
                shared = self._shared[tile_id] = BoundaryTiles(specs, *resident_tiles(specs))
            priced = memo[key] = (
                self.cum[stop] - self.cum[start],
                tuple(stats[name][stop] - stats[name][start] for name in STAT_NAMES),
                shared,
            )
        return priced

    def _tile_id(self, boundary: int) -> int:
        position = bisect_left(self.boundaries, boundary)
        if position == len(self.boundaries) or self.boundaries[position] != boundary:
            raise KeyError(boundary)
        return self._tile_ids[position]

    def tiles_at(self, boundary: int) -> tuple[dict[int, DataTile], WeightTile | None]:
        """Fresh tile descriptors (no payload) resident at a clean boundary."""
        return resident_tiles(self._tiles[self._tile_id(boundary)])


class RegionTouches:
    """Where one program reads or writes each DDR region on the batch
    regime's path: the bound a pending ECC flip puts on a batch.

    A pending flip has two dynamic effects, and both happen at an
    instruction touching its region: a load's ECC check (detect, then
    correct or escalate) and a save's ``note_write`` (the write retires
    the flip under it).  Anywhere else a batch may run across it.  A
    timing-only core touches a region with a ``LOAD_D`` of its input (or,
    with operand B, its second input), a ``LOAD_W`` of its weights and a
    ``SAVE`` of its output.  A functional core's batched SAVEs compute
    their layer from DDR (``AcceleratorCore.retire_batch``), so there a
    SAVE also reads every region its layer reads.

    Built one region at a time on first use and kept by :func:`region_touches`
    outside the :class:`ProgramMeta` (which the compile cache stores).
    """

    def __init__(self, compiled: "CompiledNetwork", program: "Program", functional: bool) -> None:
        self._compiled = compiled
        self._program = program
        self._functional = functional
        self._length = len(program)
        self._index: dict[str, list[int]] = {}

    def first(self, region: str, start: int) -> int:
        """First index ``>= start`` touching ``region`` (the program length
        when none does)."""
        index = self._index.get(region)
        if index is None:
            index = self._index[region] = self._build(region)
        position = bisect_left(index, start)
        return index[position] if position < len(index) else self._length

    def _build(self, region: str) -> list[int]:
        words = self._program.words
        layer = words["layer_id"]
        configs = self._compiled.layer_configs

        def role(name: str) -> np.ndarray:
            return np.isin(layer, [c.layer_id for c in configs if getattr(c, name) == region])

        opcode = words["opcode"]
        second = (words["flags"] & FLAG_OPERAND_B) != 0
        load_d = opcode == Opcode.LOAD_D
        save = (opcode == Opcode.SAVE) & (words["chs"] != 0)
        inputs, inputs2 = role("input_region"), role("input2_region")
        weights = role("weight_region")
        touch = (
            (load_d & ~second & inputs)
            | (load_d & second & inputs2)
            | ((opcode == Opcode.LOAD_W) & weights)
            | (save & role("output_region"))
        )
        if self._functional:
            touch |= save & (inputs | inputs2 | weights | role("bias_region"))
        index: list[int] = np.flatnonzero(touch).tolist()
        return index


_TOUCHES: "WeakKeyDictionary[ProgramMeta, dict[bool, RegionTouches]]" = WeakKeyDictionary()


def region_touches(
    meta: ProgramMeta, compiled: "CompiledNetwork", program: "Program", functional: bool
) -> RegionTouches:
    """The :class:`RegionTouches` of the program ``meta`` describes, kept
    as long as ``meta`` lives."""
    kept = _TOUCHES.setdefault(meta, {})
    touches = kept.get(functional)
    if touches is None:
        touches = kept[functional] = RegionTouches(compiled, program, functional)
    return touches


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


def _prefix(values: np.ndarray) -> "array[int]":
    """Prefix sums of one per-instruction column: a length-n+1 column."""
    sums = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=sums[1:])
    return array(COLUMN, sums.tobytes())


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

    The boundary walk visits only the instructions that change buffer
    state: loads, CALCs that open or finalize an accumulation (every CALC of
    a non-conv layer), and SAVEs that move channels.  The rest are inert —
    a virtual instruction is discarded after its fetch, a conv ``CALC_I``
    with ``in_ch0 != 0`` adds to the accumulator its first ``CALC_I``
    opened, and a ``SAVE`` with no channels drains nothing — so each one
    leaves the state its last walked predecessor left: a clean boundary
    with that predecessor's tiles after it when that state is clean, and
    nothing otherwise.  A walked instruction that leaves a clean state
    therefore ends boundaries up to the next walked one, in one ``extend``.
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
    templates = [row[0] for row in table]
    events = list(map(templates.__getitem__, inverse.tolist()))

    fetch = fetch_cycles(compiled.config)
    is_load = (opcode == Opcode.LOAD_D) | (opcode == Opcode.LOAD_W)
    is_calc_i = opcode == Opcode.CALC_I
    is_calc = is_calc_i | (opcode == Opcode.CALC_F)
    is_save = (opcode == Opcode.SAVE) & has_chs  # a fully pre-saved SAVE moves nothing
    stats = {
        "instructions": _prefix(~program.virtual_mask),
        "cycles": _prefix(cycles),
        "load_cycles": _prefix(cycles * is_load),
        "calc_cycles": _prefix(cycles * is_calc),
        "save_cycles": _prefix(cycles * is_save),
        "bytes_loaded": _prefix(length * is_load),
        "bytes_saved": _prefix(length * is_save),
    }
    opportunities = {
        site.value: _prefix(np.array([site in row[1] for row in table])[inverse])
        for site in BATCH_FAULT_SITES
    }

    # Replayed on-chip bookkeeping (timing-only: descriptors, no arrays):
    # a boundary is clean when no accumulator and no un-saved output
    # section is in flight; the resident tiles are snapshotted there.
    conv_layers = np.zeros(1 << 16, dtype=bool)  # indexed by the u2 layer id
    conv_layers[[c.layer_id for c in compiled.layer_configs if c.kind == "conv"]] = True
    conv = conv_layers[layer_id]
    walked = is_load | is_save | (is_calc & ~(is_calc_i & conv & (words["in_ch0"] != 0)))
    load_d, load_w = int(Opcode.LOAD_D), int(Opcode.LOAD_W)
    calc_i, calc_f = int(Opcode.CALC_I), int(Opcode.CALC_F)
    data_tiles: dict[int, DataSpec] = {}
    weight: WeightSpec | None = None
    tiles: TileSpecs = ((), None)
    tile_table = {tiles: 0}  # distinct resident sets -> tile id
    tile_id = 0  # of ``tiles``; -1 after a load until the next boundary
    accumulating = False
    section: tuple[int, int, int] | None = None  # (layer, row0, rows) being finalized
    unsaved: list[int] = []  # ch0 of each finalized, un-saved channel group
    at = np.flatnonzero(walked)
    # Each walked instruction j answers for the inert run up to the next
    # walked one: ``until`` is that one's index (n after the last).
    until = np.append(at[1:], len(words)).tolist()
    first = int(at[0]) if len(at) else len(words)  # the inert run before any
    boundaries = array(COLUMN, range(first + 1))
    tile_ids = array(COLUMN, [0]) * (first + 1)
    picked = words[at]
    columns = [picked["opcode"], picked["layer_id"], operand_b[at], conv[at]] + [
        picked[name] for name in ("row0", "rows", "ch0", "chs", "in_ch0", "in_chs", "length")
    ]
    walk = zip(at.tolist(), until, *(column.tolist() for column in columns))
    for j, end, op, layer, second, is_conv, row0, rows, ch0, chs, in_ch0, in_chs, nbytes in walk:
        if op == load_d:
            for slot in [s for s, tile in data_tiles.items() if tile[0] != layer]:
                del data_tiles[slot]
            data_tiles[1 if second else 0] = (layer, row0, rows, ch0, chs, nbytes)
            tiles, tile_id = (tuple(sorted(data_tiles.items())), weight), -1
        elif op == load_w:
            weight = (layer, ch0, chs, in_ch0, in_chs, nbytes)
            tiles, tile_id = (tuple(sorted(data_tiles.items())), weight), -1
        elif op == calc_i or op == calc_f:
            if is_conv and in_ch0 == 0:
                accumulating = True
            if op == calc_f or not is_conv:  # non-conv kinds never hold an accumulator
                if section != (layer, row0, rows):
                    section, unsaved = (layer, row0, rows), []
                unsaved.append(ch0)
                if is_conv:
                    accumulating = False
        elif section is not None:  # a SAVE that moves channels
            unsaved = [c for c in unsaved if not ch0 <= c < ch0 + chs]
            if not unsaved:
                section = None
        if not accumulating and section is None:
            if tile_id < 0:
                tile_id = tile_table.setdefault(tiles, len(tile_table))
            boundaries.extend(range(j + 1, end + 1))
            tile_ids.extend(repeat(tile_id, end - j))

    return ProgramMeta(
        fetch,
        _prefix(cycles + fetch),
        stats,
        events,
        boundaries,
        tile_ids,
        list(tile_table),
        opportunities,
    )
