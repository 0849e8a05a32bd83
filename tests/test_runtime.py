"""Runtime: multi-task system plumbing and scheduling statistics."""

import pytest

from repro.errors import RosError, SchedulerError
from repro.hw.config import AcceleratorConfig
from repro.iau.context import JobRecord
from repro.iau.unit import Iau
from repro.obs import EventKind, ObsConfig
from repro.runtime import (
    ArrivalPolicy,
    MultiTaskSystem,
    compile_tasks,
    degradation_percent,
    summarize_jobs,
)
from repro.ros import Executor
from repro.zoo import build_tiny_cnn, build_tiny_conv


class TestCompileTasks:
    def test_disjoint_ddr_windows(self, example_config):
        first, second = compile_tasks(
            [build_tiny_conv(), build_tiny_cnn()], example_config, weights="zeros"
        )
        first_end = max(region.end for region in first.layout.ddr.regions())
        second_start = min(region.base for region in second.layout.ddr.regions())
        assert second_start >= first_end

    def test_seeds_differ_per_network(self, example_config):
        import numpy as np

        first, second = compile_tasks(
            [build_tiny_conv(), build_tiny_conv()], example_config, weights="random"
        )
        w1 = first.layout.ddr.region(first.layout.parameter_regions["conv1"][0]).array
        w2 = second.layout.ddr.region(second.layout.parameter_regions["conv1"][0]).array
        assert not np.array_equal(w1, w2)


class TestMultiTaskSystem:
    def test_submit_unattached_task_rejected(self, tiny_pair, example_config):
        system = MultiTaskSystem(example_config)
        with pytest.raises(SchedulerError):
            system.submit(0, 0)

    def test_submit_in_past_rejected(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.submit(0, 0)
        system.run()
        with pytest.raises(SchedulerError):
            system.submit(0, 0)

    def test_periodic_submission(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.submit(0, policy=ArrivalPolicy.PERIODIC, period_cycles=500_000, count=3)
        system.run()
        jobs = system.jobs(0)
        assert len(jobs) == 3
        assert jobs[1].request_cycle - jobs[0].request_cycle == 500_000

    def test_job_index_out_of_range(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.submit(0, 0)
        system.run()
        with pytest.raises(SchedulerError):
            system.job(0, 5)

    def test_seconds_conversion(self, tiny_pair):
        low, _ = tiny_pair
        system = MultiTaskSystem(low.config)
        assert system.seconds(300_000_000) == pytest.approx(1.0)

    def test_trace_capture(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        system.add_task(0, high)
        system.submit(0, 0)
        system.run()
        retires = system.bus.of_kind(EventKind.INSTR_RETIRE)
        assert len(retires) > 0
        assert all(event.task_id == 0 for event in retires)


class TestPauseContract:
    """``run(until_cycle=)`` of a system whose accelerator goes idle before
    the pause point: it skips ahead to the next arrival even past the
    pause, which is what lets a snapshot loop or a farm epoch advance a
    node with sparse work in one call."""

    def test_a_paused_idle_system_jumps_to_its_next_arrival(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.submit(0, 0)
        system.submit(0, 1_000_000)
        assert system.run(until_cycle=200_000) == system.clock == 1_000_000
        assert len(system.jobs(0)) == 1 and not system.done
        with pytest.raises(SchedulerError):
            system.submit(0, 500_000)  # the clock is already past it
        system.run()
        assert system.job(0, 1).start_cycle == 1_000_000

    def test_a_paused_drained_system_keeps_its_clock(self, tiny_pair):
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.submit(0, 0)
        finished = system.run(until_cycle=1_000_000)
        assert system.done and finished == system.job(0).complete_cycle < 1_000_000


def _system(tiny_pair) -> MultiTaskSystem:
    low, high = tiny_pair
    system = MultiTaskSystem(low.config)
    system.add_task(0, high)
    system.add_task(1, low)
    return system


def _runtime(tiny_pair):
    system = _system(tiny_pair)
    for task_id, cycle in ((1, 0), (0, 3_000), (1, 150_000), (0, 400_000)):
        system.submit(task_id, cycle)
    return system.run


def _ros(tiny_pair):
    executor = Executor(_system(tiny_pair))
    for task_id, cycle in ((1, 0), (0, 3_000), (1, 150_000), (0, 400_000)):
        executor.schedule(cycle, lambda task_id=task_id: executor.submit_job(task_id))
    executor.schedule(200_000, lambda: None)  # a dispatch is not engine work
    return executor.run


#: Each driver: a builder of its ``run`` and its step-limit error.
DRIVERS = {"runtime": (_runtime, SchedulerError), "ros": (_ros, RosError)}


@pytest.mark.parametrize("driver", DRIVERS)
def test_max_steps_counts_the_engine_calls_that_did_work_per_run(driver, tiny_pair, monkeypatch):
    """One meaning of ``max_steps`` on every driver: ``run_batched`` calls
    that ran something, counted afresh by each ``run()`` call — not loop
    iterations, callback dispatches or calls on an idle core."""
    build, error = DRIVERS[driver]
    worked = [0]
    run_batched = Iau.run_batched

    def counted(self, horizon=None):
        ran = run_batched(self, horizon)
        worked[0] += bool(ran)
        return ran

    monkeypatch.setattr(Iau, "run_batched", counted)
    run = build(tiny_pair)
    legs = [{"until_cycle": 100_000}, {}]
    counts = []
    for leg in legs:
        worked[0] = 0
        run(**leg)
        counts.append(worked[0])
    assert min(counts) > 1

    run = build(tiny_pair)
    for leg, count in zip(legs, counts):
        run(max_steps=count, **leg)  # exactly enough, per call
    run = build(tiny_pair)
    for leg, count in zip(legs[:-1], counts):
        run(max_steps=count, **leg)
    with pytest.raises(error, match=f"{counts[-1] - 1} steps"):
        run(max_steps=counts[-1] - 1, **legs[-1])  # one short, in the last call


class TestStats:
    def make_jobs(self):
        jobs = []
        for index in range(4):
            job = JobRecord(task_id=0, request_cycle=index * 100)
            job.start_cycle = job.request_cycle + 10 * (index + 1)
            job.complete_cycle = job.start_cycle + 1000
            jobs.append(job)
        return jobs

    def test_summary_values(self):
        stats = summarize_jobs(0, self.make_jobs())
        assert stats.jobs == 4
        assert stats.mean_response == pytest.approx(25.0)
        assert stats.max_response == 40
        assert stats.max_turnaround == 1040

    def test_deadline_misses(self):
        stats = summarize_jobs(0, self.make_jobs(), deadline_cycles=1025)
        assert stats.deadline_misses == 2

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            summarize_jobs(0, [])

    def test_unit_conversions(self):
        stats = summarize_jobs(0, self.make_jobs())
        config = AcceleratorConfig.big()
        assert stats.mean_response_us(config) == pytest.approx(25 / 300, rel=1e-6)

    def test_degradation_percent(self):
        assert degradation_percent(1000, 1003) == pytest.approx(0.3)

    def test_degradation_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            degradation_percent(0, 10)

    def test_job_record_guards(self):
        job = JobRecord(task_id=0, request_cycle=0)
        from repro.errors import IauError

        with pytest.raises(IauError):
            _ = job.response_cycles
        with pytest.raises(IauError):
            _ = job.turnaround_cycles
