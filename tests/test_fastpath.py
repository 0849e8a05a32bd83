"""Horizon-batched fast path: it engages, it is the default, satellite fixes.

That :meth:`repro.iau.unit.Iau.run_batched` is cycle- and event-exact
against the step-wise loop is the conformance matrix's job
(``tests/test_conformance_matrix.py``).  Here: the fast path really retires
whole stretches and ``MultiTaskSystem.run()`` takes it by default.

Also covered: the ``JobRecord.deadline_missed`` outcome-type fix, the
``LOAD_W`` DDR-aliasing fix, past-cycle submission rejection on both system
surfaces, and the ``_inversions_seen`` boundedness fix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.core import AcceleratorCore
from repro.errors import SchedulerError
from repro.faults.plan import DeadlineMissed
from repro.iau.context import JobRecord
from repro.iau.unit import Iau
from repro.isa.opcodes import Opcode
from repro.multicore.system import MultiCoreSystem
from repro.obs.config import ObsConfig
from repro.qos.admission import AdmissionDenied
from repro.qos.config import QosConfig
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem


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
