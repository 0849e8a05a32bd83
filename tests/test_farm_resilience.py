"""Farm resilience: health state machine, feedback re-planning, chaos.

The invariants under test are the hard ones the chaos campaign gates on:
crashing nodes never loses a job (migration), never duplicates an outcome
(first-result-wins hedging + the join's duplicate rejection), and the
no-fault resilient loop agrees with itself run-to-run (determinism).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.design_space import default_design_grid
from repro.errors import SchedulerError
from repro.farm import (
    ChaosAction,
    ChaosPlan,
    Farm,
    FarmView,
    FeedbackScheduler,
    HealthState,
    NodeHealth,
    PredictiveScheduler,
    ResilienceConfig,
    Scheduler,
    ServiceSpec,
    SloClass,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
    run_chaos_campaign,
)
from repro.obs.events import EventKind
from repro.qos import ModeSwitchPolicy
from repro.serve import classify_exit

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=400_000)
SILVER = SloClass("silver", rank=1, weight=3.0, deadline_cycles=1_200_000)
BRONZE = SloClass("bronze", rank=2, weight=1.0, deadline_cycles=4_000_000)

SERVICES = (
    ServiceSpec("detect", "tiny_conv", GOLD),
    ServiceSpec("track", "tiny_residual", SILVER),
    ServiceSpec("embed", "tiny_cnn", BRONZE),
)


def traffic(seed=11, duration=2_000_000):
    return TrafficSpec(
        tenants=(
            TenantSpec(0, service=0, mean_interarrival_cycles=60_000),
            TenantSpec(1, service=1, mean_interarrival_cycles=90_000),
            TenantSpec(
                2, service=2, mean_interarrival_cycles=120_000, pattern="bursty"
            ),
        ),
        duration_cycles=duration,
        seed=seed,
    )


@pytest.fixture(scope="module")
def jobs():
    return generate_jobs(traffic())


def make_farm(scheduler=None, nodes=3):
    return Farm(
        default_design_grid()[:nodes],
        SERVICES,
        scheduler if scheduler is not None else FeedbackScheduler(),
    )


CFG = ResilienceConfig(epoch_cycles=200_000)


class TestNodeHealth:
    def test_initially_healthy(self):
        health = NodeHealth(3, suspect_after_cycles=10, dead_after_cycles=30)
        assert health.state(0) is HealthState.HEALTHY
        assert health.healthy_nodes() == [0, 1, 2]
        assert health.alive_nodes() == [0, 1, 2]

    def test_stall_escalates_suspect_then_dead(self):
        health = NodeHealth(1, suspect_after_cycles=10, dead_after_cycles=30)
        assert health.beat(0, clock=5, busy=True, now=0) is HealthState.HEALTHY
        # Clock frozen while busy: stall accumulates.
        assert health.beat(0, clock=5, busy=True, now=10) is HealthState.SUSPECT
        assert health.beat(0, clock=5, busy=True, now=20) is HealthState.SUSPECT
        assert health.beat(0, clock=5, busy=True, now=30) is HealthState.DEAD
        assert health.healthy_nodes() == []
        assert not health.alive(0)

    def test_progress_recovers_suspect(self):
        health = NodeHealth(1, suspect_after_cycles=10, dead_after_cycles=30)
        health.beat(0, clock=5, busy=True, now=0)
        assert health.beat(0, clock=5, busy=True, now=12) is HealthState.SUSPECT
        assert health.beat(0, clock=9, busy=True, now=20) is HealthState.HEALTHY

    def test_idle_node_is_never_suspect(self):
        health = NodeHealth(1, suspect_after_cycles=10, dead_after_cycles=30)
        for now in (0, 15, 40, 80):
            assert health.beat(0, clock=0, busy=False, now=now) is HealthState.HEALTHY

    def test_dead_is_terminal(self):
        health = NodeHealth(1, suspect_after_cycles=10, dead_after_cycles=30)
        health.beat(0, clock=5, busy=True, now=0)
        health.beat(0, clock=5, busy=True, now=30)
        assert health.beat(0, clock=99, busy=False, now=40) is HealthState.DEAD

    def test_worker_death_is_immediate(self):
        health = NodeHealth(2, suspect_after_cycles=10, dead_after_cycles=30)
        health.note_worker_death(1, cycle=7, reason=classify_exit(-9))
        assert health.state(1) is HealthState.DEAD
        assert health.state(0) is HealthState.HEALTHY
        assert health.transitions == [(7, 1, HealthState.DEAD)]

    def test_classify_exit_taxonomy(self):
        assert classify_exit(-9) == "signal 9"
        assert classify_exit(113) == "exit code 113"
        assert classify_exit(None) == "exit code None"

    def test_validation(self):
        with pytest.raises(SchedulerError):
            NodeHealth(0, suspect_after_cycles=1, dead_after_cycles=2)
        with pytest.raises(SchedulerError):
            NodeHealth(1, suspect_after_cycles=0, dead_after_cycles=2)
        with pytest.raises(SchedulerError):
            NodeHealth(1, suspect_after_cycles=5, dead_after_cycles=5)
        health = NodeHealth(1, suspect_after_cycles=1, dead_after_cycles=2)
        with pytest.raises(SchedulerError):
            health.note_worker_death(3, cycle=0, reason="signal 9")


class TestChaosPlan:
    def test_deterministic_random_kills(self):
        a = ChaosPlan.random_node_kills(5, num_nodes=8, kills=2, window=(0, 100))
        b = ChaosPlan.random_node_kills(5, num_nodes=8, kills=2, window=(0, 100))
        assert a == b
        c = ChaosPlan.random_node_kills(6, num_nodes=8, kills=2, window=(0, 100))
        assert a != c
        assert len(a.node_kills()) == 2
        for action in a.actions:
            assert 0 <= action.at_cycle < 100

    def test_one_kill_per_node(self):
        with pytest.raises(SchedulerError):
            ChaosPlan(
                actions=(
                    ChaosAction("kill_node", 0, at_cycle=1),
                    ChaosAction("kill_node", 0, at_cycle=2),
                )
            )

    def test_action_validation(self):
        with pytest.raises(SchedulerError):
            ChaosAction("explode", 0)
        with pytest.raises(SchedulerError):
            ChaosAction("kill_node", -1)
        with pytest.raises(SchedulerError):
            ChaosAction("kill_node", 0, at_cycle=10, heal_cycle=10)
        with pytest.raises(SchedulerError):
            ChaosAction("kill_worker", 0, heal_cycle=5)

    def test_arm_worker_kills(self, tmp_path):
        plan = ChaosPlan(actions=(ChaosAction("kill_worker", 2, count=3),))
        env = plan.arm_worker_kills(tmp_path)
        assert env == {"REPRO_FARM_CHAOS_DIR": str(tmp_path)}
        assert (tmp_path / "kill-node-2").read_text() == "3"
        assert ChaosPlan().arm_worker_kills(tmp_path) == {}


class TestFeedbackScheduler:
    def test_is_a_scheduler(self):
        assert isinstance(FeedbackScheduler(), Scheduler)
        assert FeedbackScheduler().name == "feedback+predictive"

    def test_unfed_matches_base(self, jobs):
        view = make_farm(PredictiveScheduler()).view
        assert FeedbackScheduler().dispatch(jobs, view) == (
            PredictiveScheduler().dispatch(jobs, view)
        )

    def test_observe_converges_to_measured_ratio(self):
        scheduler = FeedbackScheduler(alpha=0.5)
        for _ in range(20):
            scheduler.observe(0, 1, estimated=100, measured=150)
        assert scheduler.correction(0, 1) == pytest.approx(1.5, abs=1e-6)
        assert scheduler.correction(0, 0) == 1.0

    def test_corrected_view_scales_estimates(self):
        scheduler = FeedbackScheduler(initial_correction={(0, 0): 2.0})
        view = FarmView(2, (GOLD,), [[100], [100]], available=(5, 7))
        corrected = scheduler.corrected_view(view)
        assert corrected.estimates == ((200,), (100,))
        assert corrected.available == (5, 7)

    def test_alpha_validation(self):
        with pytest.raises(SchedulerError):
            FeedbackScheduler(alpha=0.0)
        with pytest.raises(SchedulerError):
            FeedbackScheduler(alpha=1.5)


class TestServeResilient:
    def test_no_chaos_exactly_once(self, jobs):
        result = make_farm().serve_resilient(jobs, resilience=CFG)
        assert len(result.outcomes) == len(jobs)
        assert sorted(o.job_id for o in result.outcomes) == [
            j.job_id for j in jobs
        ]
        assert result.resilience.nodes_lost == 0
        assert result.resilience.migrations == 0
        assert result.shed == ()

    def test_deterministic(self, jobs):
        a = make_farm().serve_resilient(jobs, resilience=CFG)
        b = make_farm().serve_resilient(jobs, resilience=CFG)
        assert a.outcomes == b.outcomes
        assert a.report == b.report

    def test_report_has_estimate_errors(self, jobs):
        result = make_farm().serve_resilient(jobs, resilience=CFG)
        for entry in result.report.classes:
            assert entry.err_mean_cycles is not None
            assert entry.err_p99_cycles is not None
        assert "mean err" in result.report.format()

    def test_node_kill_migrates_and_loses_nothing(self, jobs):
        farm = make_farm()
        plan = ChaosPlan(
            actions=(ChaosAction("kill_node", 2, at_cycle=600_000),), seed=1
        )
        result = farm.serve_resilient(jobs, resilience=CFG, chaos=plan)
        # Exactly once, despite the death.
        assert sorted(o.job_id for o in result.outcomes) == [
            j.job_id for j in jobs
        ]
        summary = result.resilience.nodes[2]
        assert summary.state is HealthState.DEAD
        assert summary.killed_at == 600_000
        assert farm.bus.of_kind(EventKind.NODE_DOWN)
        # Work stranded on the dead node was hedged or migrated.
        assert result.resilience.migrations + result.resilience.hedges_won > 0
        # Nothing was dispatched to the dead node after it died (its frozen
        # clock bounds every completion it contributed).
        dead_completions = [o for o in result.outcomes if o.node == 2]
        assert all(
            o.complete_cycle <= summary.final_cycle for o in dead_completions
        )

    def test_transient_hang_heals_and_dedups(self, jobs):
        farm = make_farm()
        plan = ChaosPlan(
            actions=(
                ChaosAction(
                    "kill_node", 2, at_cycle=600_000, heal_cycle=1_000_000
                ),
            ),
            seed=4,
        )
        cfg = ResilienceConfig(epoch_cycles=200_000, dead_after_cycles=1_200_000)
        result = farm.serve_resilient(jobs, resilience=cfg, chaos=plan)
        assert sorted(o.job_id for o in result.outcomes) == [
            j.job_id for j in jobs
        ]
        assert result.resilience.nodes[2].state is HealthState.HEALTHY
        assert farm.bus.of_kind(EventKind.NODE_SUSPECT)
        assert result.resilience.hedges_dispatched > 0
        # Both copies of a hedged job completed: one win, one wasted.
        assert farm.bus.of_kind(EventKind.HEDGE_WASTED)
        assert (
            result.resilience.hedges_won + result.resilience.hedges_wasted
            >= result.resilience.hedges_dispatched
        )

    def test_hedging_can_be_disabled(self, jobs):
        farm = make_farm()
        plan = ChaosPlan(
            actions=(ChaosAction("kill_node", 2, at_cycle=600_000),), seed=1
        )
        cfg = ResilienceConfig(epoch_cycles=200_000, hedge=False)
        result = farm.serve_resilient(jobs, resilience=cfg, chaos=plan)
        assert result.resilience.hedges_dispatched == 0
        assert result.resilience.migrations > 0
        assert sorted(o.job_id for o in result.outcomes) == [
            j.job_id for j in jobs
        ]

    def test_mode_switch_sheds_bronze(self):
        # Long tail of bronze arrivals so shedding has something to shed
        # after the capacity collapse.
        spec = TrafficSpec(
            tenants=(
                TenantSpec(0, service=0, mean_interarrival_cycles=80_000),
                TenantSpec(1, service=2, mean_interarrival_cycles=50_000),
            ),
            duration_cycles=3_000_000,
            seed=3,
        )
        jobs = generate_jobs(spec)
        farm = make_farm()
        plan = ChaosPlan(
            actions=(
                ChaosAction("kill_node", 1, at_cycle=300_000),
                ChaosAction("kill_node", 2, at_cycle=400_000),
            ),
            seed=3,
        )
        cfg = ResilienceConfig(
            epoch_cycles=200_000,
            mode_switch=ModeSwitchPolicy(capacity_threshold=0.75, shed_min_rank=2),
        )
        result = farm.serve_resilient(jobs, resilience=cfg, chaos=plan)
        assert farm.bus.of_kind(EventKind.MODE_SWITCH)
        assert result.resilience.mode_switches
        assert len(result.shed) > 0
        assert all(job.service == 2 for job in result.shed)
        # Shed jobs are accounted, not lost: completed + shed == submitted.
        assert len(result.outcomes) + len(result.shed) == len(jobs)
        accounted = {o.job_id for o in result.outcomes} | {
            j.job_id for j in result.shed
        }
        assert accounted == {j.job_id for j in jobs}
        bronze = result.report.by_class("bronze")
        assert bronze.shed == len(result.shed)
        assert "shed" in result.report.format()

    def test_all_nodes_dead_raises(self, jobs):
        farm = make_farm()
        plan = ChaosPlan(
            actions=tuple(
                ChaosAction("kill_node", node, at_cycle=100_000)
                for node in range(3)
            ),
            seed=9,
        )
        with pytest.raises(SchedulerError, match="lost all"):
            farm.serve_resilient(jobs, resilience=CFG, chaos=plan)

    def test_serve_resilient_obs_summary(self, jobs):
        from repro.obs.export import summarize

        farm = make_farm()
        plan = ChaosPlan(
            actions=(ChaosAction("kill_node", 2, at_cycle=600_000),), seed=1
        )
        farm.serve_resilient(jobs, resilience=CFG, chaos=plan)
        text = summarize(farm.bus)
        assert "Farm resilience" in text
        assert "node(s) down" in text


class TestChaosCampaign:
    def test_campaign_invariants_hold(self, jobs):
        plans = [
            ChaosPlan.random_node_kills(
                seed, num_nodes=3, kills=1, window=(300_000, 1_200_000)
            )
            for seed in (1, 2)
        ]
        report = run_chaos_campaign(
            lambda: make_farm(), jobs, plans, resilience=CFG
        )
        assert report.all_ok
        for trial in report.trials:
            assert trial.lost_jobs == 0
            assert trial.duplicated_jobs == 0
            assert trial.gold_attainment >= trial.gold_floor
        assert "chaos campaign" in report.format()


@settings(max_examples=8, deadline=None)
@given(
    kill_mask=st.lists(st.booleans(), min_size=3, max_size=3),
    kill_cycle=st.integers(min_value=100_000, max_value=1_500_000),
)
def test_property_crash_subset_preserves_outcome_multiset(kill_mask, kill_cycle):
    """Crashing any proper subset of nodes yields the same outcome job-id
    multiset as the no-fault golden run (exactly-once survives chaos)."""
    jobs = generate_jobs(traffic(seed=23, duration=1_200_000))
    actions = tuple(
        ChaosAction("kill_node", node, at_cycle=kill_cycle + 7_000 * node)
        for node, killed in enumerate(kill_mask)
        if killed
    )
    if len(actions) == 3:
        actions = actions[:2]  # keep one survivor
    golden = make_farm().serve_resilient(jobs, resilience=CFG)
    chaotic = make_farm().serve_resilient(
        jobs, resilience=CFG, chaos=ChaosPlan(actions=actions, seed=0)
    )
    golden_ids = sorted(o.job_id for o in golden.outcomes)
    chaos_ids = sorted(o.job_id for o in chaotic.outcomes)
    assert golden_ids == chaos_ids == sorted(j.job_id for j in jobs)


def arm_one_worker_kill(farm, jobs, directory, monkeypatch):
    """SIGKILL, once, the measure worker of a node the plan gives work."""
    node = farm.plan(jobs)[0].node
    plan = ChaosPlan(actions=(ChaosAction("kill_worker", node),))
    for name, value in plan.arm_worker_kills(directory).items():
        monkeypatch.setenv(name, value)


class TestMeasureRetries:
    def test_retry_budget_configurable(self, tmp_path, jobs, monkeypatch):
        farm = make_farm(PredictiveScheduler())
        farm.measure_retries = 2
        arm_one_worker_kill(farm, jobs, tmp_path, monkeypatch)
        result = farm.serve(jobs, max_workers=2)
        # One crash poisons the whole executor: every assignment sharing it
        # counts as retried, so the count is >= 1 (and the day completes).
        assert result.report.worker_retries >= 1
        retry_events = farm.bus.of_kind(EventKind.MEASURE_RETRY)
        assert len(retry_events) == result.report.worker_retries
        assert retry_events[0].data["attempt"] == 1
        assert len(result.outcomes) == len(jobs)

    def test_zero_retries_fails_fast(self, tmp_path, jobs, monkeypatch):
        farm = Farm(
            default_design_grid()[:3],
            SERVICES,
            PredictiveScheduler(),
            measure_retries=0,
        )
        arm_one_worker_kill(farm, jobs, tmp_path, monkeypatch)
        with pytest.raises(SchedulerError, match="1 attempt"):
            farm.serve(jobs, max_workers=2)

    def test_retry_validation(self):
        with pytest.raises(SchedulerError):
            Farm(
                default_design_grid()[:1],
                SERVICES,
                PredictiveScheduler(),
                measure_retries=-1,
            )
