"""Multi-core multi-tasking (the paper's future work, implemented)."""

import pytest

from repro.errors import SchedulerError
from repro.interrupt import VIRTUAL_INSTRUCTION, run_alone
from repro.multicore import MultiCoreSystem, compare_deployments
from repro.runtime.system import compile_tasks
from repro.zoo import build_tiny_cnn, build_tiny_conv
from tests.conformance import NAMED, check


@pytest.fixture(scope="module")
def pair(example_config):
    high, low = compile_tasks(
        [build_tiny_conv(), build_tiny_cnn()], example_config, weights="zeros"
    )
    return high, low


class TestConstruction:
    def test_rejects_zero_cores(self, pair, example_config):
        with pytest.raises(SchedulerError):
            MultiCoreSystem(example_config, num_cores=0)

    def test_rejects_unknown_placement(self, pair, example_config):
        with pytest.raises(SchedulerError):
            MultiCoreSystem(example_config, num_cores=2, placement="quantum")

    def test_rejects_pin_with_dynamic(self, pair, example_config):
        high, _ = pair
        system = MultiCoreSystem(example_config, num_cores=2, placement="least-loaded")
        with pytest.raises(SchedulerError):
            system.add_task(0, high, core=1)

    def test_rejects_duplicate_task(self, pair, example_config):
        high, _ = pair
        system = MultiCoreSystem(example_config, num_cores=2)
        system.add_task(0, high, core=0)
        with pytest.raises(SchedulerError):
            system.add_task(0, high, core=1)

    def test_rejects_submit_unknown_task(self, pair, example_config):
        system = MultiCoreSystem(example_config, num_cores=1)
        with pytest.raises(SchedulerError):
            system.submit(0, 0)


class TestSingleCoreEquivalence:
    def test_one_core_matches_multitask_system(self):
        """A 1-core MultiCoreSystem must behave exactly like the runtime's
        single-accelerator system: clock, job records and core stats."""
        check(*NAMED["one-core"])


class TestSpatialIsolation:
    def test_two_cores_run_in_parallel(self, pair, example_config):
        high, low = pair
        high_alone = run_alone(high, VIRTUAL_INSTRUCTION)
        low_alone = run_alone(low, VIRTUAL_INSTRUCTION)

        system = MultiCoreSystem(example_config, num_cores=2, placement="static")
        system.add_task(0, high, core=0)
        system.add_task(1, low, core=1)
        system.submit(0, 0)
        system.submit(1, 0)
        makespan = system.run()
        # Parallel: makespan ~= max of the two, not the sum.
        assert makespan < high_alone + low_alone
        assert makespan >= max(high_alone, low_alone)

    def test_pinned_high_task_never_waits(self, pair, example_config):
        high, low = pair
        system = MultiCoreSystem(example_config, num_cores=2, placement="static")
        system.add_task(0, high, core=0)
        system.add_task(1, low, core=1)
        system.submit(1, 0)
        system.submit(0, 2000)  # its core is idle: starts immediately
        system.run()
        assert system.jobs(0)[0].response_cycles == 0


class TestDynamicDispatch:
    def test_jobs_spread_across_cores(self, pair, example_config):
        _, low = pair
        system = MultiCoreSystem(example_config, num_cores=2, placement="least-loaded")
        system.add_task(1, low)
        for _ in range(4):
            system.submit(1, 0)
        system.run()
        busy = system.core_busy_cycles()
        assert all(cycles > 0 for cycles in busy)
        assert len(system.jobs(1)) == 4

    def test_dynamic_beats_single_core_makespan(self, pair, example_config):
        _, low = pair
        def makespan(cores):
            system = MultiCoreSystem(example_config, num_cores=cores, placement="least-loaded")
            system.add_task(1, low)
            for _ in range(4):
                system.submit(1, 0)
            return system.run()

        assert makespan(2) < makespan(1)


class TestComparison:
    def test_compare_deployments_rows(self, pair):
        high, low = pair
        high_alone = run_alone(high, VIRTUAL_INSTRUCTION)
        result = compare_deployments(
            high, low, high_period_cycles=high_alone * 3, high_count=10, low_count=3
        )
        assert len(result.rows) == 3
        single = result.row("1-core (INCA, pre-emptive)")
        spatial = result.row("2-core (spatial isolation)")
        # Spatial isolation zeroes the FE response...
        assert spatial.high_mean_response_cycles <= single.high_mean_response_cycles
        # ...but the single pre-emptive core is better utilised.
        assert single.utilisation() > spatial.utilisation()
        assert "Multi-core" in result.format()

    def test_no_deadline_misses_anywhere(self, pair):
        high, low = pair
        high_alone = run_alone(high, VIRTUAL_INSTRUCTION)
        result = compare_deployments(
            high, low, high_period_cycles=high_alone * 4, high_count=8, low_count=2
        )
        for row in result.rows:
            assert row.high_deadline_misses == 0
