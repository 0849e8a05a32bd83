"""Chaos campaign benchmark: the resilient farm survives node deaths.

One oversubscribed multi-tenant day on an eight-node heterogeneous farm
(the design grid twice over).  A seeded chaos plan kills two of the eight
nodes mid-run.  The headline claims:

* the feedback (plan→measure→re-plan) loop loses **zero** jobs and
  duplicates **zero** outcomes across every chaos trial — dead nodes'
  stranded work is hedged or migrated, exactly once;
* its gold-class SLO attainment stays within 10% of the no-fault golden
  run despite losing a quarter of the farm;
* the static whole-day plan has no answer: when the process-pool worker
  of node 2 dies its measure phase aborts (the pool is a plain fan-out;
  only ``serve_durable`` recovers a dead worker), and even granting it a
  crash-free measure phase, a lost-node day costs it the jobs the dead
  nodes would have completed — far below the floor.

The table lands in ``benchmarks/results/farm_chaos.txt``.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import write_result
from repro.analysis.design_space import default_design_grid
from repro.analysis.tables import format_table
from repro.errors import SchedulerError
from repro.farm import (
    ChaosPlan,
    Farm,
    FeedbackScheduler,
    PredictiveScheduler,
    ResilienceConfig,
    ServiceSpec,
    SloClass,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
    run_chaos_campaign,
)
from repro.farm.node import simulate_node
from repro.serve.worker import CRASH_EXIT_CODE

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=150_000)
SILVER = SloClass("silver", rank=1, weight=3.0, deadline_cycles=600_000)
BRONZE = SloClass("bronze", rank=2, weight=1.0, deadline_cycles=2_500_000)

SERVICES = (
    ServiceSpec("detect", "tiny_conv", GOLD),
    ServiceSpec("track", "tiny_residual", SILVER),
    ServiceSpec("embed", "tiny_cnn", BRONZE),
)

PATTERNS = ("poisson", "bursty", "diurnal")

DURATION = 6_000_000
KILL_WINDOW = (1_500_000, 3_500_000)


def eight_node_grid():
    return tuple(default_design_grid()) * 2


def oversubscribed_day(seed: int = 42):
    spec = TrafficSpec(
        tenants=tuple(
            TenantSpec(
                i,
                service=i % len(SERVICES),
                mean_interarrival_cycles=45_000,
                pattern=PATTERNS[i % len(PATTERNS)],
            )
            for i in range(16)
        ),
        duration_cycles=DURATION,
        seed=seed,
    )
    return generate_jobs(spec)


def make_farm():
    return Farm(eight_node_grid(), SERVICES, FeedbackScheduler())


def _dies_on_node_2(assignment):
    """A pool worker that vanishes like ``kill -9`` on node 2 and simulates
    every other node (module-level, so the pool pickles it by reference)."""
    if assignment.node == 2:
        os._exit(CRASH_EXIT_CODE)
    return simulate_node(assignment)


def test_feedback_loop_survives_losing_two_of_eight_nodes(monkeypatch):
    jobs = oversubscribed_day()
    resilience = ResilienceConfig(epoch_cycles=250_000)
    plans = [
        ChaosPlan.random_node_kills(
            seed, num_nodes=8, kills=2, window=KILL_WINDOW
        )
        for seed in (1, 2, 3)
    ]
    campaign = run_chaos_campaign(
        make_farm, jobs, plans, resilience=resilience, floor=0.9
    )

    # -- the static whole-day plan, for contrast -------------------------
    # (a) Worker-level chaos: the measure worker of node 2 dies.  The
    # static pipeline has no per-node health model — it aborts the day.
    static_farm = Farm(eight_node_grid(), SERVICES, PredictiveScheduler())
    static_aborts = False
    with monkeypatch.context() as patch:
        patch.setattr("repro.farm.farm.simulate_node", _dies_on_node_2)
        try:
            static_farm.serve(jobs, max_workers=4)
        except SchedulerError:
            static_aborts = True

    # (b) Even granting the static plan a crash-free measure phase, a day
    # where two nodes die at the planned cycles silently loses every job
    # those nodes would have completed afterwards.
    clean = Farm(eight_node_grid(), SERVICES, PredictiveScheduler()).serve(
        jobs, max_workers=4
    )
    kills = plans[0].node_kills()
    surviving = [
        outcome
        for outcome in clean.outcomes
        if not (
            outcome.node in kills
            and outcome.complete_cycle > kills[outcome.node].at_cycle
        )
    ]
    lost = len(clean.outcomes) - len(surviving)
    gold_total = sum(1 for o in clean.outcomes if o.service == 0)
    gold_ok = sum(
        1
        for o in surviving
        if o.service == 0 and o.latency_cycles <= GOLD.deadline_cycles
    )
    static_gold = gold_ok / gold_total if gold_total else 0.0
    golden_gold = campaign.golden.report.by_class("gold").attainment

    static_rows = [
        [
            "static + worker kills",
            "aborted (no worker recovery)" if static_aborts else "completed",
        ],
        ["static + 2 node deaths: jobs lost", lost],
        [
            "static + 2 node deaths: gold att",
            f"{100 * static_gold:.2f}% (floor {100 * 0.9 * golden_gold:.2f}%)",
        ],
    ]
    text = (
        campaign.format()
        + "\n\n"
        + format_table(
            ["static-plan contrast", "outcome"],
            static_rows,
            title="the static whole-day plan under the same chaos",
        )
        + "\n\n"
        + campaign.trials[0].result.resilience.format()
    )
    write_result("farm_chaos", text)

    # -- the headline invariants ----------------------------------------
    assert len(jobs) > 1_500, f"day too small: {len(jobs)} jobs"
    for trial in campaign.trials:
        assert trial.result.resilience.nodes_lost == 2
        assert trial.lost_jobs == 0, "resilient loop lost jobs"
        assert trial.duplicated_jobs == 0, "resilient loop duplicated outcomes"
        assert trial.gold_attainment >= 0.9 * golden_gold, (
            f"gold attainment {trial.gold_attainment:.3f} fell below "
            f"90% of golden {golden_gold:.3f}"
        )
    assert campaign.all_ok
    # The static plan fails the same day both ways.
    assert static_aborts, "a dead pool worker should abort the static day"
    assert lost > 0, "node deaths must cost the static plan jobs"
    assert static_gold < 0.9 * golden_gold or lost > 0


if __name__ == "__main__":
    pytest.main([__file__, "-x", "-q"])
