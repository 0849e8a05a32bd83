"""Priority assignment and schedulability analysis, validated against the
simulator."""

import pytest

from repro.errors import SchedulerError
from repro.interrupt import VIRTUAL_INSTRUCTION, run_alone
from repro.runtime import ArrivalPolicy, MultiTaskSystem, compile_tasks, summarize_jobs
from repro.runtime.policies import (
    PeriodicTask,
    is_schedulable,
    liu_layland_bound,
    rate_monotonic_order,
    response_time_analysis,
    total_utilisation,
    worst_blocking_cycles,
)
from repro.zoo import build_tiny_cnn, build_tiny_conv, build_tiny_residual


@pytest.fixture(scope="module")
def workloads(example_config):
    compiled = compile_tasks(
        [build_tiny_conv(), build_tiny_residual(), build_tiny_cnn()],
        example_config,
        weights="zeros",
    )
    durations = [run_alone(c, VIRTUAL_INSTRUCTION) for c in compiled]
    return compiled, durations


def make_tasks(workloads, period_factors):
    compiled, durations = workloads
    return [
        PeriodicTask(
            name=c.graph.name,
            compiled=c,
            period_cycles=int(duration * factor),
            execution_cycles=duration,
        )
        for c, duration, factor in zip(compiled, durations, period_factors)
    ]


class TestBasics:
    def test_liu_layland_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.828, abs=0.001)
        assert liu_layland_bound(4) == pytest.approx(0.7568, abs=0.001)

    def test_liu_layland_rejects_zero(self):
        with pytest.raises(SchedulerError):
            liu_layland_bound(0)

    def test_rate_monotonic_sorts_by_period(self, workloads):
        tasks = make_tasks(workloads, (8, 3, 20))
        ordered = rate_monotonic_order(tasks)
        periods = [task.period_cycles for task in ordered]
        assert periods == sorted(periods)

    def test_task_validation(self, workloads):
        compiled, _ = workloads
        with pytest.raises(SchedulerError):
            PeriodicTask("bad", compiled[0], period_cycles=0, execution_cycles=10)

    def test_utilisation(self, workloads):
        tasks = make_tasks(workloads, (2, 4, 8))
        assert total_utilisation(tasks) == pytest.approx(0.5 + 0.25 + 0.125)

    def test_blocking_positive(self, workloads):
        compiled, _ = workloads
        assert worst_blocking_cycles(compiled[2]) > 0

    def test_too_many_tasks_rejected(self, workloads):
        tasks = make_tasks(workloads, (4, 4, 4)) + make_tasks(workloads, (4, 4, 4))[:2]
        with pytest.raises(SchedulerError):
            response_time_analysis(tasks)


class TestAnalysisVsSimulation:
    def run_simulation(self, tasks, hyper_repeats=3):
        """Simulate the periodic set; returns worst measured turnaround."""
        config = tasks[0].compiled.config
        system = MultiTaskSystem(config)
        worst = {}
        for slot, task in enumerate(tasks):
            system.add_task(slot, task.compiled, vi_mode="vi")
            count = max(2, hyper_repeats * max(t.period_cycles for t in tasks) // task.period_cycles)
            system.submit(
                slot,
                policy=ArrivalPolicy.PERIODIC,
                period_cycles=task.period_cycles,
                count=count,
            )
        system.run()
        for slot, task in enumerate(tasks):
            stats = summarize_jobs(slot, system.jobs(slot), deadline_cycles=task.period_cycles)
            worst[task.name] = (stats.max_turnaround, stats.deadline_misses)
        return worst

    def test_schedulable_set_meets_deadlines_in_simulation(self, workloads):
        tasks = rate_monotonic_order(make_tasks(workloads, (6, 6, 6)))
        analysis = response_time_analysis(tasks)
        assert all(result.schedulable for result in analysis)
        measured = self.run_simulation(tasks)
        for task, result in zip(tasks, analysis):
            worst_turnaround, misses = measured[task.name]
            assert misses == 0
            # A preempted task pays recovery and re-fetch on resume, which the
            # analysis does not charge: below the top priority it is a bound
            # only up to that per-preemption slack.
            slack = 0 if task is tasks[0] else task.period_cycles * 0.05
            assert worst_turnaround <= result.response_cycles + slack

    @pytest.mark.parametrize(
        "factors",
        [(2, 4, 8), (4, 4, 4), (6, 6, 6), (8, 3, 20), (10, 10, 10), (3, 4, 6), (8, 8, 8)],
        ids=str,
    )
    def test_top_priority_response_is_bounded_without_slack(self, workloads, factors):
        """The top-priority task is never preempted, so the analysis (its own
        execution plus the worst lower-priority WCIRL) bounds it exactly."""
        tasks = rate_monotonic_order(make_tasks(workloads, factors))
        analysis = response_time_analysis(tasks)
        assert all(result.schedulable for result in analysis)
        worst_turnaround, _ = self.run_simulation(tasks)[tasks[0].name]
        assert worst_turnaround <= analysis[0].response_cycles

    def test_overloaded_set_flagged(self, workloads):
        # Periods barely above execution time for all three: > 100% utilisation.
        tasks = make_tasks(workloads, (1.05, 1.05, 1.05))
        assert total_utilisation(tasks) > 1.0
        assert not is_schedulable(tasks)

    def test_analysis_includes_blocking(self, workloads):
        """The top-priority task's response exceeds its execution time by the
        worst lower-priority WCIRL (VI pre-emption granularity)."""
        tasks = rate_monotonic_order(make_tasks(workloads, (10, 10, 10)))
        analysis = response_time_analysis(tasks)
        top = analysis[0]
        top_task = tasks[0]
        assert top.response_cycles > top_task.execution_cycles
        blocking = max(worst_blocking_cycles(t.compiled) for t in tasks[1:])
        assert top.response_cycles == top_task.execution_cycles + blocking
