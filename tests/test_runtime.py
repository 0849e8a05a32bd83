"""Runtime: multi-task system plumbing and scheduling statistics."""

import pytest

from repro.errors import SchedulerError
from repro.hw.config import AcceleratorConfig
from repro.iau.context import JobRecord
from repro.obs import EventKind, ObsConfig
from repro.runtime import (
    ArrivalPolicy,
    MultiTaskSystem,
    compile_tasks,
    degradation_percent,
    summarize_jobs,
)
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
