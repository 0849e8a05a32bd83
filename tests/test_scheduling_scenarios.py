"""Scheduling scenario tests: queue pressure, bursts, and A3's farm days."""

import numpy as np

from repro.accel.reference import golden_output
from repro.analysis.experiments import _AtArrival, _fe_pr_day, experiment_multicore
from repro.estimate import estimate_service_cycles
from repro.farm import Farm
from repro.obs import ObsConfig
from repro.runtime import MultiTaskSystem
from repro.runtime.stats import summarize_jobs
from repro.runtime.system import ArrivalPolicy, compile_tasks
from repro.zoo import build_tiny_cnn, build_tiny_conv

from tests.conftest import random_input


class TestBurstArrivals:
    def test_back_to_back_high_jobs_during_low(self, tiny_pair):
        """Two high-priority requests land while the low task runs: both
        execute before the low task resumes for good, all outputs intact."""
        low, high = tiny_pair
        low_input = random_input(low, seed=80)
        high_input = random_input(high, seed=81)
        expected_low = golden_output(low, low_input)
        expected_high = golden_output(high, high_input)

        system = MultiTaskSystem(low.config, obs=ObsConfig(functional=True))
        system.add_task(0, high)
        system.add_task(1, low)
        low.set_input(low_input)
        high.set_input(high_input)
        system.submit(1, 0)
        system.submit(0, 4_000)
        system.submit(0, 4_001)  # queued immediately behind the first
        system.run()

        high_jobs = system.jobs(0)
        assert len(high_jobs) == 2
        # The second high job runs right after the first, without the low
        # task sneaking in between (it is still lower priority).
        assert high_jobs[1].start_cycle <= high_jobs[0].complete_cycle + 10_000
        assert system.job(1).complete_cycle > high_jobs[1].complete_cycle
        assert np.array_equal(low.get_output(), expected_low)
        assert np.array_equal(high.get_output(), expected_high)

    def test_request_during_high_task_waits(self, tiny_pair):
        """A high request arriving while another high job runs queues FIFO."""
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(0, 0)
        system.submit(0, 100)
        system.run()
        first, second = system.jobs(0)
        assert second.start_cycle >= first.complete_cycle

    def test_saturating_low_priority_queue(self, tiny_pair):
        """Many queued low jobs all drain, in order, with high preemptions."""
        low, high = tiny_pair
        system = MultiTaskSystem(low.config)
        system.add_task(0, high)
        system.add_task(1, low)
        for _ in range(5):
            system.submit(1, 0)
        system.submit(0, 10_000)
        system.submit(0, 50_000)
        system.run()
        low_jobs = system.jobs(1)
        assert len(low_jobs) == 5
        for earlier, later in zip(low_jobs, low_jobs[1:]):
            assert later.start_cycle >= earlier.complete_cycle


class TestA3OnTheFarm:
    def test_rows_and_the_at_arrival_plan(self, example_config):
        """A3 on the example's tiny pair (tiny_conv FE every three FE
        estimates, tiny_cnn PR queued at 0): the 1-core row is a
        MultiTaskSystem driven directly, spatial isolation never delays
        FE, and the at-arrival plan hands every job over at its arrival,
        to the lowest idle node whenever one exists."""
        config = example_config
        fe, pr = compile_tasks([build_tiny_conv(), build_tiny_cnn()], config)
        period = 3 * estimate_service_cycles(config, fe)
        fe_count, pr_count = 8, 3
        result = experiment_multicore(config, "tiny_conv", "tiny_cnn", period, fe_count, pr_count)

        direct = MultiTaskSystem(config)
        direct.add_task(0, fe)
        direct.add_task(1, pr)
        direct.submit(0, policy=ArrivalPolicy.PERIODIC, period_cycles=period, count=fe_count)
        for _ in range(pr_count):
            direct.submit(1, 0)
        direct.run()
        services, jobs = _fe_pr_day("tiny_conv", "tiny_cnn", period, fe_count, pr_count)
        farm = Farm([config], services, _AtArrival(), obs=ObsConfig())
        farm.serve(jobs)
        (node,) = farm.node_systems
        assert node.clock == direct.clock
        assert [node.jobs(slot) for slot in (0, 1)] == [direct.jobs(slot) for slot in (0, 1)]
        stats = summarize_jobs(0, direct.jobs(0), deadline_cycles=period)
        single = result.row("1-core (INCA, pre-emptive)")
        assert single.high_mean_response_cycles == stats.mean_response > 0
        assert single.makespan_cycles == direct.clock
        assert single.core_busy_cycles == (
            sum(context.busy_cycles for context in direct.iau.contexts if context),
        )

        assert result.row("2-core (spatial isolation)").high_mean_response_cycles == 0

        farm = Farm([config] * 2, services, _AtArrival())
        free = [0, 0]  # each node's estimated free cycle, FIFO
        idle_choices = busy_choices = 0
        for job, chosen, cycle in farm.plan(jobs):
            assert cycle == job.arrival_cycle
            idle = [n for n in (0, 1) if free[n] <= cycle]
            if idle:
                assert chosen == idle[0], job
                idle_choices += 1
            else:
                busy_choices += 1
            free[chosen] = max(cycle, free[chosen]) + farm.estimate(chosen, job.service)
        assert idle_choices and busy_choices  # both branches of the rule ran
