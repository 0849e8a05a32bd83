"""The accelerator farm: traffic determinism, scheduler conformance,
dispatch/measure agreement, process-sharded equivalence, per-node obs."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import RemainingCycles, estimate_job_cycles
from repro.analysis.design_space import default_design_grid
from repro.errors import SchedulerError
from repro.farm import (
    Dispatch,
    Farm,
    FarmView,
    FcfsScheduler,
    Job,
    NodeAssignment,
    PredictiveScheduler,
    Scheduler,
    ServiceSpec,
    SloClass,
    StaticPartitionScheduler,
    TenantSpec,
    TrafficSpec,
    build_node_system,
    generate_jobs,
    percentile,
    run_assignment,
)
from repro.farm.metrics import JobOutcome, build_report, join_outcomes, nearest_rank
from repro.farm.node import NodeJobResult, decode_results, encode_results, results_array
from repro.iau.unit import DISPATCH_KEYS, Iau
from repro.obs import EventKind, ObsConfig
from repro.runtime.system import MultiTaskSystem
from repro.serve import ServeGateway
from tests import farm_oracle as oracle
from tests.farm_days import HalfAtArrival, overlapping_nodes, simulated

#: The ``dispatch_counts`` keys that count calls (the rest count
#: instructions and stalls).
CALL_KEYS = {key for key in DISPATCH_KEYS if not key.startswith(("instr_", "stalls_"))}

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=100_000)
SILVER = SloClass("silver", rank=1, weight=3.0, deadline_cycles=400_000)
BRONZE = SloClass("bronze", rank=2, weight=1.0, deadline_cycles=2_000_000)

SERVICES = (
    ServiceSpec("detect", "tiny_conv", GOLD),
    ServiceSpec("track", "tiny_residual", SILVER),
    ServiceSpec("embed", "tiny_cnn", BRONZE),
)

SCHEDULERS = [FcfsScheduler, StaticPartitionScheduler, PredictiveScheduler]


def small_spec(seed=42, duration=1_000_000, patterns=("poisson", "bursty", "diurnal")):
    tenants = tuple(
        TenantSpec(
            i,
            service=i % len(SERVICES),
            mean_interarrival_cycles=30_000,
            pattern=patterns[i % len(patterns)],
        )
        for i in range(6)
    )
    return TrafficSpec(tenants=tenants, duration_cycles=duration, seed=seed)


@pytest.fixture(scope="module")
def small_jobs():
    return generate_jobs(small_spec())


class TestTraffic:
    def test_same_seed_same_stream(self):
        assert generate_jobs(small_spec(seed=7)) == generate_jobs(small_spec(seed=7))

    def test_different_seed_different_stream(self):
        assert generate_jobs(small_spec(seed=7)) != generate_jobs(small_spec(seed=8))

    def test_jobs_sorted_and_numbered(self, small_jobs):
        arrivals = [job.arrival_cycle for job in small_jobs]
        assert arrivals == sorted(arrivals)
        assert [job.job_id for job in small_jobs] == list(range(len(small_jobs)))
        assert all(0 <= job.arrival_cycle < 1_000_000 for job in small_jobs)

    def test_tenant_streams_are_independent(self):
        """Removing one tenant never perturbs another tenant's arrivals."""
        full = generate_jobs(small_spec())
        spec = small_spec()
        reduced = generate_jobs(
            TrafficSpec(
                tenants=spec.tenants[:-1],
                duration_cycles=spec.duration_cycles,
                seed=spec.seed,
            )
        )
        survivor_ids = {tenant.tenant_id for tenant in spec.tenants[:-1]}
        kept = [
            (job.arrival_cycle, job.tenant_id)
            for job in full
            if job.tenant_id in survivor_ids
        ]
        assert kept == [(job.arrival_cycle, job.tenant_id) for job in reduced]

    def test_poisson_mean_rate(self):
        """Long-run arrival count tracks duration/mean within a loose CI."""
        spec = TrafficSpec(
            tenants=(TenantSpec(0, service=0, mean_interarrival_cycles=10_000),),
            duration_cycles=50_000_000,
            seed=11,
        )
        count = len(generate_jobs(spec))
        expected = 5_000
        assert 0.9 * expected < count < 1.1 * expected

    def test_bursty_preserves_mean_but_clusters(self):
        base = dict(service=0, mean_interarrival_cycles=10_000)
        duration = 50_000_000
        poisson = generate_jobs(
            TrafficSpec((TenantSpec(0, **base),), duration, seed=5)
        )
        bursty = generate_jobs(
            TrafficSpec(
                (TenantSpec(0, pattern="bursty", **base),), duration, seed=5
            )
        )
        # Same long-run mean (within tolerance)...
        assert 0.75 * len(poisson) < len(bursty) < 1.25 * len(poisson)
        # ...but burstier: higher variance of arrivals per window.
        def window_variance(jobs, window=1_000_000):
            counts = {}
            for job in jobs:
                counts[job.arrival_cycle // window] = (
                    counts.get(job.arrival_cycle // window, 0) + 1
                )
            values = [counts.get(i, 0) for i in range(duration // window)]
            mean = sum(values) / len(values)
            return sum((v - mean) ** 2 for v in values) / len(values)

        assert window_variance(bursty) > 2 * window_variance(poisson)

    def test_diurnal_rate_swings(self):
        tenant = TenantSpec(
            0,
            service=0,
            mean_interarrival_cycles=10_000,
            pattern="diurnal",
            diurnal_depth=0.9,
            diurnal_period_cycles=10_000_000,
        )
        jobs = generate_jobs(TrafficSpec((tenant,), 10_000_000, seed=13))
        # First half-period rides the sinusoid's positive lobe.
        first = sum(1 for job in jobs if job.arrival_cycle < 5_000_000)
        second = len(jobs) - first
        assert first > 1.5 * second

    def test_validation(self):
        with pytest.raises(SchedulerError):
            TenantSpec(0, service=0, mean_interarrival_cycles=0)
        with pytest.raises(SchedulerError):
            TenantSpec(0, service=0, mean_interarrival_cycles=1.0, pattern="chaotic")
        with pytest.raises(SchedulerError):
            SloClass("bad", rank=0, weight=0.0, deadline_cycles=1)
        with pytest.raises(SchedulerError):
            TrafficSpec(
                tenants=(
                    TenantSpec(0, service=0, mean_interarrival_cycles=1.0),
                    TenantSpec(0, service=1, mean_interarrival_cycles=1.0),
                ),
                duration_cycles=10,
            )


def reference_predictive(jobs, view: FarmView) -> list[Dispatch]:
    """``PredictiveScheduler.dispatch`` as first written: key functions."""
    busy_until, plan, queues = list(view.available), [], {}
    pending, index, queued, now = list(jobs), 0, 0, 0

    def score(job):
        slo = view.slos[job.service]
        return (slo.weight * (now - job.arrival_cycle + 1), -slo.rank, -job.arrival_cycle)

    while index < len(pending) or queued:
        if not queued:
            now = max(now, pending[index].arrival_cycle)
        now = max(now, min(busy_until))
        while index < len(pending) and pending[index].arrival_cycle <= now:
            queues.setdefault(pending[index].service, deque()).append(pending[index])
            queued, index = queued + 1, index + 1
        if not queued:
            continue
        job = max((queue[0] for queue in queues.values() if queue), key=score)
        queues[job.service].popleft()
        queued -= 1
        node = min(
            range(view.num_nodes),
            key=lambda n: (max(now, busy_until[n]) + view.estimate(n, job.service), n),
        )
        start = max(now, busy_until[node])
        busy_until[node] = start + view.estimate(node, job.service)
        plan.append(Dispatch(job, node, start))
    return plan


class TestSchedulerConformance:
    @pytest.fixture(scope="class")
    def farm_view(self):
        farm = Farm(default_design_grid(), SERVICES, FcfsScheduler())
        return farm.view

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_protocol(self, scheduler_cls):
        assert isinstance(scheduler_cls(), Scheduler)

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_every_job_dispatched_once(self, scheduler_cls, small_jobs, farm_view):
        plan = scheduler_cls().dispatch(small_jobs, farm_view)
        assert sorted(d.job.job_id for d in plan) == [j.job_id for j in small_jobs]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_no_time_travel(self, scheduler_cls, small_jobs, farm_view):
        for dispatch in scheduler_cls().dispatch(small_jobs, farm_view):
            assert dispatch.dispatch_cycle >= dispatch.job.arrival_cycle
            assert 0 <= dispatch.node < farm_view.num_nodes

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_plan_is_deterministic(self, scheduler_cls, small_jobs, farm_view):
        first = scheduler_cls().dispatch(small_jobs, farm_view)
        second = scheduler_cls().dispatch(small_jobs, farm_view)
        assert first == second

    def test_static_partition_pins_services(self, small_jobs, farm_view):
        for dispatch in StaticPartitionScheduler().dispatch(small_jobs, farm_view):
            assert dispatch.node == dispatch.job.service % farm_view.num_nodes

    def test_fcfs_never_reorders(self, small_jobs, farm_view):
        plan = FcfsScheduler().dispatch(small_jobs, farm_view)
        assert [d.job.job_id for d in plan] == [j.job_id for j in small_jobs]

    @pytest.mark.parametrize("seed", range(4))
    def test_predictive_keeps_its_tie_breaks(self, seed):
        """The planning loop against the scoring it replaced, written out
        with ``max`` / ``min`` over keys: the head with the most tokens,
        then the more urgent class, then the oldest arrival (a full tie:
        the queue opened first); the node with the earliest estimated
        finish, then the lower index.  The day is built to tie: two
        services share a class, arrivals sit on a coarse grid, and nodes
        share estimates."""
        rng = random.Random(seed)
        slos = (GOLD, GOLD, SILVER, BRONZE)
        view = FarmView(
            3, slos, [[4_000, 4_000, 9_000, 6_000]] * 2 + [[3_000, 5_000, 9_000, 3_000]],
            available=[0, rng.randrange(0, 9_000, 3_000), 0],
        )
        cycles = sorted(rng.randrange(0, 60_000, 1_000) for _ in range(300))
        jobs = [Job(cycle, index, 0, rng.randrange(4)) for index, cycle in enumerate(cycles)]
        assert PredictiveScheduler().dispatch(jobs, view) == reference_predictive(jobs, view)


class TestFarmServing:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_every_job_completes(self, scheduler_cls, small_jobs):
        farm = Farm(default_design_grid(), SERVICES, scheduler_cls())
        result = farm.serve(small_jobs)
        assert result.report.total_jobs == len(small_jobs)
        for outcome in result.outcomes:
            assert outcome.complete_cycle > outcome.arrival_cycle
            assert outcome.dispatch_cycle >= outcome.arrival_cycle

    def test_serial_equals_parallel(self, small_jobs):
        """Node 0 overlaps, so a gateway worker simulates it; the rest are
        answered by their plan.  Serial and shipped equal the all-simulated
        farm."""
        farm = Farm(default_design_grid(), SERVICES, HalfAtArrival())
        assert overlapping_nodes(farm, farm.plan(small_jobs)) == [0]
        serial = farm.serve(small_jobs)
        parallel = farm.serve(small_jobs, max_workers=4)
        assert serial.outcomes == parallel.outcomes
        want = simulated(Farm(default_design_grid(), SERVICES, HalfAtArrival()), small_jobs)
        assert parallel.outcomes == want.outcomes

    def test_single_uncontended_job_matches_estimate(self):
        """With no contention, measured latency == the static estimate
        (measured on a simulated node: the plan would answer it by the
        estimate itself)."""
        farm = Farm(default_design_grid()[:1], SERVICES, FcfsScheduler())
        jobs = generate_jobs(
            TrafficSpec(
                tenants=(TenantSpec(0, service=0, mean_interarrival_cycles=10.0),),
                duration_cycles=30,
                seed=1,
            )
        )[:1]
        result = simulated(farm, jobs)
        outcome = result.outcomes[0]
        expected = farm.estimate(0, 0)
        assert outcome.complete_cycle - outcome.dispatch_cycle == expected

    def test_a_lone_job_is_one_engine_call(self, monkeypatch):
        """Call-count gate: in a node replay where no two jobs overlap, no
        ``run_batched`` call retires zero instructions just to complete a
        job — a completion ends the call that retired the last instruction.
        Every call that runs something ends under exactly one call key of
        ``dispatch_counts``; the completion-only calls are the rest."""
        config = default_design_grid()[0]
        system = build_node_system(config, SERVICES)
        longest = max(context.meta.total_cycles for context in system.iau.contexts if context)
        jobs = 12
        dispatches = tuple(
            (job, job % len(SERVICES), job * 2 * longest) for job in range(jobs)
        )
        ran = 0
        real = Iau.run_batched

        def counting(self, horizon=None):
            nonlocal ran
            result = real(self, horizon)
            ran += result
            return result

        monkeypatch.setattr(Iau, "run_batched", counting)
        results = run_assignment(NodeAssignment(0, config, SERVICES, dispatches), system)
        counts = system.iau.dispatch_counts
        ends = sum(counts[key] for key in CALL_KEYS)
        assert len(results) == jobs
        assert counts["batched"] == jobs and counts["instr_stepped"] == 0
        assert ran - ends == 0

    def test_obs_per_node(self, small_jobs):
        farm = Farm(
            default_design_grid()[:2],
            SERVICES,
            FcfsScheduler(),
            obs=ObsConfig(events=True),
        )
        result = farm.serve(small_jobs[:40])
        assert farm.node_systems is not None
        completions = sum(
            len(system.bus.of_kind(EventKind.JOB_COMPLETE))
            for system in farm.node_systems
        )
        assert completions == len(result.outcomes)

    def test_obs_requires_serial(self, small_jobs):
        farm = Farm(
            default_design_grid()[:2],
            SERVICES,
            FcfsScheduler(),
            obs=ObsConfig(events=True),
        )
        with pytest.raises(SchedulerError, match="serial"):
            farm.serve(small_jobs[:10], max_workers=2)

    def test_rejects_too_many_services(self):
        too_many = tuple(
            ServiceSpec(f"s{i}", "tiny_conv", BRONZE) for i in range(5)
        )
        with pytest.raises(SchedulerError, match="at most"):
            Farm(default_design_grid(), too_many, FcfsScheduler())

    def test_report_lookup_and_format(self, small_jobs):
        farm = Farm(default_design_grid(), SERVICES, PredictiveScheduler())
        report = farm.serve(small_jobs).report
        assert report.by_class("gold").slo is GOLD
        text = report.format()
        assert "gold" in text and "overall" in text
        with pytest.raises(SchedulerError):
            report.by_class("platinum")


class TestEstimatorApi:
    def test_remaining_cycles_matches_estimate(self, tiny_cnn_compiled):
        program = tiny_cnn_compiled.program_for("vi")
        estimate = estimate_job_cycles(
            tiny_cnn_compiled.config, tiny_cnn_compiled, program
        )
        predictor = RemainingCycles(tiny_cnn_compiled, program)
        assert predictor.total_cycles == estimate
        assert predictor.remaining(0) == estimate
        assert predictor.remaining(len(program)) == 0
        assert predictor.elapsed(0) == 0
        assert predictor.completed_fraction(len(program)) == 1.0
        mid = len(program) // 2
        assert predictor.elapsed(mid) + predictor.remaining(mid) == estimate

    def test_remaining_cycles_bounds_checked(self, tiny_cnn_compiled):
        predictor = RemainingCycles(tiny_cnn_compiled)
        with pytest.raises(SchedulerError):
            predictor.elapsed(len(predictor) + 1)
        with pytest.raises(SchedulerError):
            predictor.elapsed(-1)

    def test_top_level_exports(self):
        import repro

        assert "estimate_job_cycles" in repro.__all__
        assert "RemainingCycles" in repro.__all__

    def test_farm_view_uses_the_estimator(self):
        farm = Farm(default_design_grid(), SERVICES, FcfsScheduler())
        grid = default_design_grid()
        # Faster/wider designs never estimate slower than the small one.
        for service in range(len(SERVICES)):
            small_est = farm.estimate(0, service)
            big_est = farm.estimate(1, service)
            assert big_est <= small_est


class TestPercentile:
    """Nearest rank, ``ceil(N * p / 100)`` at ``p``'s decimal face value,
    for :func:`percentile` and for the sorted int64 columns the report
    reads (:func:`nearest_rank`)."""

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7], 99) == 7

    def test_float_rounding_regression(self):
        # 99.9 / 100 * 1000 = 999.0000000000001 as binary floats: float
        # multiply-then-ceil arithmetic returns rank 1000 instead of 999.
        values = list(range(1, 1001))
        assert percentile(values, 99.9) == 999
        assert nearest_rank(np.array(values), 99.9) == 999

    def test_just_above_boundary_advances_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20
        assert percentile(values, 50.1) == 30

    def test_agrees_with_definition(self):
        rng = random.Random(0)
        for n in (1, 2, 3, 7, 100, 999, 1000):
            values = list(range(n))
            shuffled = rng.sample(values, n)
            for p in (0.1, 25, 33.3, 50, 66.6, 75, 99, 99.9, 100):
                expected = values[ceil(Fraction(str(p)) * n / 100) - 1]
                assert percentile(shuffled, p) == expected, (n, p)
                column = np.sort(np.array(shuffled, np.int64))
                got = nearest_rank(column, p)
                assert type(got) is int and got == expected, (n, p)

    def test_rejects_bad_input(self):
        with pytest.raises(SchedulerError):
            percentile([], 50)
        with pytest.raises(SchedulerError):
            percentile([1], 0)
        for p in (0, -1, 101, float("nan"), float("inf")):
            with pytest.raises(SchedulerError):
                nearest_rank(np.array([1, 2]), p)


class TestFarmViewValidation:
    def test_ragged_estimates_rejected(self):
        with pytest.raises(SchedulerError):
            FarmView(num_nodes=2, slos=(GOLD,), estimates=[[100]])

    def test_plan_validates_service_range(self, small_jobs):
        farm = Farm(default_design_grid(), SERVICES[:1], FcfsScheduler())
        bad = [job for job in small_jobs if job.service > 0][:1]
        with pytest.raises(SchedulerError, match="service"):
            farm.plan(bad)



# -- the node-results wire codec ----------------------------------------------

_WIDTH = len(NodeJobResult._fields)
_ROW = st.tuples(*[st.integers(min_value=0, max_value=2**62)] * _WIDTH)


@given(st.lists(_ROW, max_size=40))
@example([])
@example([(2**62,) * _WIDTH])
@settings(max_examples=60, deadline=None)
def test_results_codec_round_trips_rows_in_order(values):
    """What a gateway worker encodes, the parent decodes: empty input, one
    row, values up to 2**62, row order kept, ``NodeJobResult`` rows out.
    The block is little-endian on every host (a journal may move)."""
    rows = [NodeJobResult(*row) for row in values]
    block = encode_results(rows)
    flat = [value for row in values for value in row]
    assert block == b"".join(value.to_bytes(8, "little") for value in flat)
    decoded = decode_results(block)
    assert decoded == rows
    assert all(type(row) is NodeJobResult for row in decoded)


# -- the parent's column passes against the per-job oracle --------------------

#: Two services may share a class, two names may share a rank, one name may
#: come as two class objects (the report keeps its last appearance), and
#: classes of one weight differ in rank (equal tokens: the rank decides).
_CLASSES = (
    GOLD,
    SloClass("gold", rank=0, weight=8.0, deadline_cycles=3_000),
    SloClass("silver", rank=1, weight=3.0, deadline_cycles=4_000),
    SloClass("tin", rank=1, weight=1.0, deadline_cycles=2_000),
    SloClass("lead", rank=2, weight=3.0, deadline_cycles=5_000),
    BRONZE,
)
_GRID = 1_000  # arrivals, estimates, offsets and delays: so ties happen

#: Ways to break a day's results on the way into the join, each one of the
#: join's refusals; a drawn day applies none, one or two of them.
_BREAKS = (
    "completed twice", "unknown job", "missing row",
    "shed twice", "unknown shed", "shed and completed",
)


@st.composite
def small_days(draw):
    """A restricted view of 1–4 nodes (with ``available`` offsets), a day of
    jobs in arrival order with equal arrivals, shuffled ids and some shed,
    and the breaks to apply to its results."""
    services = draw(st.integers(1, 4))
    slos = draw(st.lists(st.sampled_from(_CLASSES), min_size=services, max_size=services))
    grid = st.integers(1, 4).map(lambda k: k * _GRID)
    estimates = draw(st.lists(st.lists(grid, min_size=services, max_size=services),
                              min_size=4, max_size=4))
    nodes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    available = draw(st.lists(st.integers(0, 3).map(lambda k: k * _GRID),
                              min_size=len(nodes), max_size=len(nodes)))
    view = FarmView(4, slos, estimates).restrict(nodes, available)
    count = draw(st.integers(0, 30))
    arrivals = sorted(draw(st.lists(st.integers(0, 12).map(lambda k: k * _GRID),
                                    min_size=count, max_size=count)))
    ids = draw(st.permutations(range(100, 100 + count)))
    jobs = [
        Job(arrival, job_id, draw(st.integers(0, 3)), draw(st.integers(0, services - 1)))
        for arrival, job_id in zip(arrivals, ids)
    ]
    shed = [job for job in jobs if draw(st.booleans()) and draw(st.booleans())]
    breaks = draw(st.lists(st.sampled_from(_BREAKS), max_size=2))
    return view, jobs, shed, breaks, draw(st.randoms(use_true_random=False))


def _same(new, old):
    """Equal, and the same types all the way down (``repr`` shows a numpy
    scalar where a Python ``int`` belongs)."""
    assert new == old
    assert repr(new) == repr(old)


def _outcome_or_error(call):
    try:
        return call()
    except SchedulerError as error:
        return f"SchedulerError: {error}"


def _break(rows, shed, kept, breaks, rng):
    """``rows`` and ``shed`` with each of ``breaks`` applied at a drawn place."""
    rows, shed = list(rows), list(shed)
    for name in breaks:
        if name == "completed twice" and rows:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
        elif name == "unknown job":
            rows.insert(rng.randrange(len(rows) + 1), NodeJobResult(7, 0, 0, 0, 0, 0))
        elif name == "missing row" and rows:
            rows.pop(rng.randrange(len(rows)))
        elif name == "shed twice" and shed:
            shed.insert(rng.randrange(len(shed) + 1), rng.choice(shed))
        elif name == "unknown shed":
            shed.insert(rng.randrange(len(shed) + 1), Job(0, 7, 0, 0))
        elif name == "shed and completed" and kept:
            shed.insert(rng.randrange(len(shed) + 1), rng.choice(kept).job)
    return rows, shed


@given(small_days())
@settings(max_examples=300, deadline=None)
def test_plan_join_and_report_equal_the_per_job_oracle(day):
    """``PredictiveScheduler.dispatch``, ``join_outcomes`` (rows and int64
    array alike) and ``build_report`` against their per-job forms in
    ``tests/farm_oracle.py``: the same plan, the same outcomes, every
    ``ClassReport`` field, and the same refusal, message for message."""
    view, jobs, shed, breaks, rng = day
    plan = PredictiveScheduler().dispatch(jobs, view)
    _same(plan, oracle.predictive_dispatch(jobs, view))
    assert all(type(dispatch) is Dispatch for dispatch in plan)

    # Measured service times: near the estimate, now and then far off (an
    # error sum past 2**53 tells an exact mean from a float one).
    kept = [d for d in plan if d.job not in shed]
    rows = [
        NodeJobResult(
            d.job.job_id, d.node, d.job.service, d.dispatch_cycle, d.dispatch_cycle,
            d.dispatch_cycle + view.estimate(d.node, d.job.service)
            + rng.choice([rng.randrange(-2, 3) * _GRID // 2, rng.randrange(2**53, 2**56)]),
        )
        for d in kept
    ]
    rng.shuffle(rows)
    outcomes = oracle.join_outcomes(jobs, rows, shed=shed)
    _same(join_outcomes(jobs, rows, shed=shed), outcomes)
    _same(join_outcomes(jobs, results_array([encode_results(rows)]), shed=shed), outcomes)
    assert all(type(outcome) is JobOutcome for outcome in outcomes)

    rng.shuffle(outcomes)  # the report reads outcomes in any order
    for estimates in (None, view.estimates):
        _same(
            build_report("predictive", outcomes, view.slos, estimates=estimates,
                         shed=shed, worker_retries=1),
            oracle.build_report("predictive", outcomes, view.slos, estimates=estimates,
                                shed=shed, worker_retries=1),
        )

    broken, shed = _break(rows, shed, kept, breaks, rng)
    want = _outcome_or_error(lambda: oracle.join_outcomes(jobs, broken, shed=shed))
    _same(_outcome_or_error(lambda: join_outcomes(jobs, broken, shed=shed)), want)
    block = results_array([encode_results(broken)])
    _same(_outcome_or_error(lambda: join_outcomes(jobs, block, shed=shed)), want)


@pytest.mark.parametrize("max_workers", [None, 2])
def test_a_day_with_a_repeated_job_id_is_refused_before_any_node_runs(
    max_workers, monkeypatch
):
    """Two arrivals sharing ``job_id`` 3 used to simulate the whole day and
    then fail the join with "job 3 completed twice"."""
    jobs = generate_jobs(small_spec())[:20]
    jobs.insert(10, Job(jobs[9].arrival_cycle, 3, 0, 0))

    def ran(*args, **kwargs):
        raise AssertionError("a node ran")

    monkeypatch.setattr(MultiTaskSystem, "run", ran)
    monkeypatch.setattr(ServeGateway, "__init__", ran)
    farm = Farm(default_design_grid(), SERVICES, PredictiveScheduler())
    with pytest.raises(SchedulerError, match="^job 3 arrived twice$"):
        farm.serve(jobs, max_workers=max_workers)


def test_a_resilient_day_with_a_repeated_job_id_is_refused_before_its_first_epoch(monkeypatch):
    """Each epoch's plan checked only that epoch's arrivals, so a ``job_id``
    repeated four epochs later was served twice and failed the join with
    "job 3 completed twice"."""
    jobs = generate_jobs(small_spec())[:20]
    jobs.append(Job(jobs[-1].arrival_cycle + 1_000_000, 3, 0, 0))

    def planned(*args, **kwargs):
        raise AssertionError("an epoch was planned")

    monkeypatch.setattr(PredictiveScheduler, "dispatch", planned)
    farm = Farm(default_design_grid(), SERVICES, PredictiveScheduler())
    with pytest.raises(SchedulerError, match="^job 3 arrived twice$"):
        farm.serve_resilient(jobs)
