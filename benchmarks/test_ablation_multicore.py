"""Ablation — multi-core multi-tasking (the paper's §VI future work).

Deploys the DSLAM pair (SuperPoint@120x160 FE at 20 fps, GeM PR queued at
the start) as three :class:`~repro.farm.Farm` days: one pre-emptive node
(the paper's system), two statically partitioned nodes, and two nodes fed
at arrival.  Shows the trade the paper's future work would explore:
spatial isolation zeroes FE response latency but leaves silicon idle; the
single pre-emptive core achieves full utilisation at a response cost of
tens of microseconds.  The 1-core and static rows are pinned to the cycle.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.analysis.experiments import experiment_multicore
from repro.dslam.camera import frame_period_cycles


@pytest.fixture(scope="module")
def scaling_result(big_config):
    period = frame_period_cycles(big_config.clock.hz, 20.0)
    return experiment_multicore(big_config, "superpoint_qqvga", "gem", period, 12, 2)


def test_multicore_table(benchmark, scaling_result):
    benchmark(scaling_result.format)
    write_result("ablation_multicore", scaling_result.format())


def test_single_core_row(benchmark, scaling_result):
    single = benchmark(scaling_result.row, "1-core (INCA, pre-emptive)")
    assert single.high_deadline_misses == 0
    assert single.high_mean_response_cycles == pytest.approx(115_900 / 12)  # 12 FE jobs: 32.2 us
    assert single.makespan_cycles == 226_703_560
    assert single.core_busy_cycles == (226_703_560,)  # 100 % utilisation


def test_spatial_isolation_row(benchmark, scaling_result):
    spatial = benchmark(scaling_result.row, "2-core (spatial isolation)")
    assert spatial.high_mean_response_cycles == 0
    assert spatial.makespan_cycles == 197_886_800
    assert spatial.core_busy_cycles == (28_464_672, 197_886_800)
    single = scaling_result.row("1-core (INCA, pre-emptive)")
    assert spatial.utilisation() < single.utilisation()


def test_dynamic_dispatch_row(benchmark, scaling_result):
    dynamic = benchmark(scaling_result.row, "2-core (dynamic dispatch)")
    assert dynamic.makespan_cycles == 167_372_056
    assert dynamic.high_deadline_misses == 0
    assert dynamic.low_jobs_completed == 2
