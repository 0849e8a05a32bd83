"""Horizon-batched fast path: it engages, it is the default, satellite fixes.

That :meth:`repro.iau.unit.Iau.run_batched` is cycle- and event-exact
against the step-wise loop is the conformance matrix's job
(``tests/test_conformance_matrix.py``).  Here: the fast path really retires
whole stretches and ``MultiTaskSystem.run()`` takes it by default.

The stretch memo (``ProgramMeta.stretch``) stays within its bound, is
never pickled, and shares no tile object between functional batches; the
boundary descriptors timing-only cores share stay as they were built.

Also covered: the ``JobRecord.deadline_missed`` outcome-type fix, the
``LOAD_W`` DDR-aliasing fix, past-cycle submission rejection on both system
surfaces, and the ``_inversions_seen`` boundedness fix.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.accel.core import AcceleratorCore, resident_tiles
from repro.analysis.design_space import default_design_grid
from repro.compiler import compile_network
from repro.errors import SchedulerError
from repro.farm import (
    Farm,
    ServiceSpec,
    SloClass,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
)
from repro.faults.campaign import default_rates
from repro.faults.plan import DeadlineMissed, FaultPlan
from repro.iau import fastpath
from repro.iau.context import JobRecord
from repro.iau.fastpath import ProgramMeta, build_program_meta
from repro.iau.unit import Iau
from repro.isa.opcodes import Opcode
from repro.multicore.system import MultiCoreSystem
from repro.obs.config import ObsConfig
from repro.qos.admission import AdmissionDenied
from repro.qos.config import QosConfig
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem, compile_tasks
from repro.zoo import build_tiny_cnn, build_tiny_residual
from tests.conftest import random_input
from tests.farm_days import AtArrival


def test_fast_path_actually_batches(tiny_cnn_compiled):
    """run_batched() retires whole stretches: far fewer dispatch iterations
    than instructions, at the exact step-wise clock."""
    program = tiny_cnn_compiled.program_for("vi")

    def drain(batched):
        core = AcceleratorCore(
            tiny_cnn_compiled.config, tiny_cnn_compiled.layout.ddr,
            obs=ObsConfig(),
        )
        iau = Iau(core)
        iau.attach_task(0, tiny_cnn_compiled, vi_mode="vi")
        iau.request(0, at_cycle=0)
        iterations = 0
        step = iau.run_batched if batched else iau.step
        while step():
            iterations += 1
        return iau.clock, iterations

    clock_s, iters_s = drain(False)
    clock_b, iters_b = drain(True)
    assert clock_b == clock_s
    assert iters_s > len(program)  # one per instruction + completion
    assert iters_b < iters_s / 4


def test_batched_is_default_run_path(tiny_pair, example_config):
    """MultiTaskSystem.run() takes the fast path by default (same clock)."""

    def run(**kwargs):
        low, high = tiny_pair
        system = MultiTaskSystem(example_config)
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(1, at_cycle=0)
        system.submit(0, at_cycle=1_000)
        clock = system.run(**kwargs)
        assert all(job.complete_cycle is not None for job in system.jobs(0))
        assert all(job.complete_cycle is not None for job in system.jobs(1))
        return clock

    assert run() == run(batched=False)


# -- satellite: JobRecord.deadline_missed is outcome-typed --------------------


def test_deadline_missed_requires_watchdog_outcome():
    record = JobRecord(task_id=2, request_cycle=100)
    assert not record.deadline_missed
    record.outcome = AdmissionDenied(
        task_id=2, reason="queue_full", request_cycle=100, queue_depth=2
    )
    # An admission denial is a typed outcome but NOT a watchdog miss.
    assert not record.deadline_missed
    record.outcome = DeadlineMissed(
        task_id=2, request_cycle=100, deadline_cycles=500, turnaround_cycles=900
    )
    assert record.deadline_missed


# -- satellite: LOAD_W tiles must not alias DDR -------------------------------


def test_load_w_tile_does_not_alias_ddr(example_config):
    """Clobbering DDR weights *after* each LOAD_W must not change outputs:
    the in-flight tile is a copy, not a view (matching LOAD_D)."""
    from repro.compiler.compile import compile_network
    from repro.zoo import build_tiny_cnn

    compiled = compile_network(
        build_tiny_cnn(), example_config, weights="random", seed=11
    )
    shape = compiled.graph.input_shape
    rng = np.random.default_rng(5)
    input_map = rng.integers(
        -128, 128, size=(shape.height, shape.width, shape.channels)
    ).astype(np.int8)
    program = compiled.program_for("none")
    weight_regions = {
        compiled.layer_config(instr.layer_id).weight_region
        for instr in program
        if not instr.is_virtual and instr.opcode is Opcode.LOAD_W
    }
    pristine = {
        name: compiled.layout.ddr.region(name).array.copy()
        for name in weight_regions
    }

    def run(clobber):
        for name, array in pristine.items():
            compiled.layout.ddr.region(name).array[:] = array
        compiled.set_input(input_map)
        core = AcceleratorCore(
            compiled.config, compiled.layout.ddr, obs=ObsConfig(functional=True)
        )
        for instr in program:
            if instr.is_virtual:
                continue
            layer = compiled.layer_config(instr.layer_id)
            if clobber and instr.opcode is Opcode.LOAD_W:
                # Every load still reads pristine weights from DDR ...
                region = compiled.layout.ddr.region(layer.weight_region)
                region.array[:] = pristine[layer.weight_region]
            core.execute(instr, layer)
            if clobber and instr.opcode is Opcode.LOAD_W:
                # ... but the region is zeroed the moment the burst retires,
                # so a tile that aliased DDR would compute with zeros.
                compiled.layout.ddr.region(layer.weight_region).array[:] = 0
        return compiled.get_output().copy()

    clean = run(clobber=False)
    clobbered = run(clobber=True)
    for name, array in pristine.items():  # leave the shared layout intact
        compiled.layout.ddr.region(name).array[:] = array
    assert clean.any()  # a degenerate all-zero output would prove nothing
    np.testing.assert_array_equal(clobbered, clean)


# -- satellite: past-cycle submissions rejected on both surfaces --------------


def test_single_core_rejects_past_submission(tiny_cnn_compiled, example_config):
    system = MultiTaskSystem(example_config)
    system.add_task(0, tiny_cnn_compiled)
    system.submit(0, at_cycle=0)
    system.run()
    assert system.iau.clock > 0
    with pytest.raises(SchedulerError, match="past"):
        system.submit(0, at_cycle=0)


def test_multicore_rejects_past_submission(tiny_cnn_compiled, example_config):
    system = MultiCoreSystem(example_config, num_cores=1)
    system.add_task(0, tiny_cnn_compiled)
    system.submit(0, at_cycle=0)
    system.run()
    assert system.makespan() > 0
    with pytest.raises(SchedulerError, match="past"):
        system.submit(0, at_cycle=0)


def test_multicore_accepts_future_submission_after_run(
    tiny_cnn_compiled, example_config
):
    system = MultiCoreSystem(example_config, num_cores=1)
    system.add_task(0, tiny_cnn_compiled)
    system.submit(0, at_cycle=0)
    first = system.run()
    system.submit(0, at_cycle=first + 10)
    assert system.run() > first
    assert len(system.jobs(0)) == 2


# -- satellite: _inversions_seen stays bounded --------------------------------


def test_inversions_seen_pruned_on_completion(tiny_pair, example_config):
    """The de-dup set is dropped as head jobs complete — it never grows with
    the number of jobs in a long periodic run."""
    low, high = tiny_pair
    system = MultiTaskSystem(
        example_config, qos=QosConfig(detect_inversion=True)
    )
    # High-priority task with a deadline far tighter than a low-priority
    # job: every arrival that lands mid-job waits with negative slack.
    system.add_task(0, high, deadline_cycles=100)
    system.add_task(1, low, vi_mode="none")
    system.submit(
        1, at_cycle=0, policy=ArrivalPolicy.PERIODIC, period_cycles=9_000, count=8
    )
    system.submit(
        0, at_cycle=500, policy=ArrivalPolicy.PERIODIC, period_cycles=9_000, count=8
    )
    system.run()
    assert system.iau.num_inversions > 0
    assert system.iau._inversions_seen == set()


# -- the stretch memo -----------------------------------------------------------


def _armed_pair_run(config):
    """A tiny armed pair on freshly compiled networks (cold metas): slot 0
    preempts slot 1 under the campaign fault rates, so batches end at
    fires, flips and arrivals, anywhere in either program."""
    low, high = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual()], config, weights="random", seed=4
    )
    system = MultiTaskSystem(config, faults=FaultPlan(seed=3, rates=default_rates()))
    system.add_task(0, high)
    system.add_task(1, low)
    for k in range(8):
        system.submit(1, 9_000 * k)
        system.submit(0, 2_500 + 11_000 * k)
    system.run()
    records = [
        (job.request_cycle, job.start_cycle, job.complete_cycle)
        for slot in (0, 1)
        for job in system.jobs(slot)
    ]
    return system.clock, records, system.iau.core.stats, system.iau.dispatch_counts


def test_stretch_memo_stays_within_its_bound(example_config, monkeypatch):
    """An armed pair prices more distinct stretches than a bound of 2
    allows; each meta keeps at most 2, and the run is the one the default
    bound gives."""
    golden = _armed_pair_run(example_config)
    priced: dict[int, tuple[ProgramMeta, set]] = {}
    stretch = ProgramMeta.stretch

    def spy(meta, start, stop):
        result = stretch(meta, start, stop)
        priced.setdefault(id(meta), (meta, set()))[1].add((start, stop))
        assert len(meta._stretches) <= 2
        return result

    monkeypatch.setattr(fastpath, "STRETCH_MEMO", 2)
    monkeypatch.setattr(ProgramMeta, "stretch", spy)
    assert _armed_pair_run(example_config) == golden
    assert len(priced) == 2
    assert all(len(keys) > 2 for _meta, keys in priced.values())


def test_a_warm_stretch_memo_pickles_like_a_cold_one(tiny_cnn_compiled):
    program = tiny_cnn_compiled.program_for("vi")
    meta = build_program_meta(tiny_cnn_compiled, program)
    cold = pickle.dumps(meta)
    for start, stop in zip(meta.boundaries, meta.boundaries[1:]):
        meta.stretch(start, stop)
    assert meta._stretches and meta._shared
    assert pickle.dumps(meta) == cold
    loaded = pickle.loads(cold)
    assert loaded._stretches == {} and loaded._shared == {}
    assert loaded.length == meta.length == len(program)


def test_batches_build_their_own_tiles(example_config, monkeypatch):
    """Two jobs retire the same priced stretch on a functional core: each
    batch gets its own tile objects and payloads, none shared with the
    other batch's or with the memo, and the output is the stepped one."""
    compiled = compile_network(build_tiny_cnn(), example_config, weights="random", seed=2)
    compiled.set_input(random_input(compiled))
    resident = []
    retire_batch = AcceleratorCore.retire_batch

    def spy(core, *args):
        retire_batch(core, *args)
        resident.append((dict(core.data_tiles), core.weight_tile))

    def run(batched):
        system = MultiTaskSystem(example_config, obs=ObsConfig(functional=True))
        system.add_task(0, compiled)
        system.submit(0, 0)
        system.submit(0, 1)
        system.run(batched=batched)
        return system.clock, compiled.get_output().tobytes()

    stepped = run(batched=False)
    monkeypatch.setattr(AcceleratorCore, "retire_batch", spy)
    assert run(batched=True) == stepped
    meta = compiled.meta("vi")
    assert (0, meta.length) in meta._stretches
    assert len(resident) == 2
    first, second = ([*data.values(), weight] for data, weight in resident)
    assert len(first) > 1
    assert [replace(t, array=None) for t in first] == [replace(t, array=None) for t in second]
    assert len({id(tile) for tile in first + second}) == 2 * len(first)
    assert not any(np.shares_memory(a.array, b.array) for a, b in zip(first, second))


def _shared_sets(metas):
    """``(specs, shared descriptors)`` of every tile set ``metas`` built."""
    return [
        (meta._tiles[tile_id], shared)
        for meta in metas
        for tile_id, shared in meta._shared.items()
    ]


def test_a_timing_only_farm_day_leaves_the_shared_tiles_as_built():
    """A day of preempting tiny jobs on two timing-only nodes: every core
    installed the boundary descriptors its metas share, stepped loads
    (preemptions, recoveries) ran on top of them, and each shared set
    still equals a fresh build from its specs, field for field, with no
    payload."""
    gold = SloClass("gold", rank=0, weight=8.0, deadline_cycles=200_000)
    bronze = SloClass("bronze", rank=2, weight=1.0, deadline_cycles=4_000_000)
    services = (
        ServiceSpec("detect", "tiny_conv", gold),
        ServiceSpec("embed", "tiny_cnn", bronze),
    )
    spec = TrafficSpec(
        tenants=(
            TenantSpec(0, service=0, mean_interarrival_cycles=20_000),
            TenantSpec(1, service=1, mean_interarrival_cycles=30_000),
        ),
        duration_cycles=1_500_000,
        seed=7,
    )
    farm = Farm(default_design_grid()[:2], services, AtArrival())
    result = farm.serve(generate_jobs(spec))
    assert result.report.total_jobs > 100
    systems = farm.node_systems
    assert systems is not None and not any(s.core.functional for s in systems)
    counts = [s.iau.dispatch_counts for s in systems]
    assert all(c["batched"] and c["preempting_task"] and c["recovery"] for c in counts)
    metas = {
        id(context.meta): context.meta
        for system in systems
        for context in system.iau.contexts
        if context is not None
    }
    shared = _shared_sets(metas.values())
    assert len(shared) >= len(metas)
    for specs, tiles in shared:
        data_tiles, weight_tile = resident_tiles(specs)
        assert tiles.specs == specs
        descriptors = [*tiles.data_tiles.values(), tiles.weight_tile]
        assert all(t is None or t.array is None for t in descriptors)
        assert tiles.data_tiles == data_tiles and tiles.weight_tile == weight_tile


def test_a_functional_core_never_installs_the_shared_tiles(example_config, monkeypatch):
    """The same priced stretches on a timing-only and then a functional
    core: the functional batches hold none of the shared descriptors."""
    compiled = compile_network(build_tiny_cnn(), example_config, weights="random", seed=3)
    compiled.set_input(random_input(compiled))
    installed = []
    retire_batch = AcceleratorCore.retire_batch

    def spy(core, *args):
        retire_batch(core, *args)
        installed.append((core.functional, core.data_tiles, core.weight_tile))

    monkeypatch.setattr(AcceleratorCore, "retire_batch", spy)
    for obs in (ObsConfig(), ObsConfig(functional=True)):
        system = MultiTaskSystem(example_config, obs=obs)
        system.add_task(0, compiled)
        system.submit(0, 0)
        system.submit(0, 1)
        system.run()
    shared = _shared_sets([compiled.meta("vi")])
    assert shared
    dicts = {id(tiles.data_tiles) for _specs, tiles in shared}
    objects = {
        id(tile)
        for _specs, tiles in shared
        for tile in [*tiles.data_tiles.values(), tiles.weight_tile]
        if tile is not None
    }
    timing = [entry for entry in installed if not entry[0]]
    functional = [entry for entry in installed if entry[0]]
    assert timing and functional
    for _functional, data_tiles, weight_tile in timing:
        assert id(data_tiles) not in dicts  # a copy of the shared dict ...
        assert {id(tile) for tile in data_tiles.values()} <= objects  # ... of shared tiles
    for _functional, data_tiles, weight_tile in functional:
        assert id(data_tiles) not in dicts
        mine = [*data_tiles.values(), weight_tile]
        assert not {id(tile) for tile in mine if tile is not None} & objects
