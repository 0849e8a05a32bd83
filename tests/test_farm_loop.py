"""The one serving loop: pinned exactness, plan validation on every path,
and the loop + resilience policy driven over a fake node backend.

The digests in ``tests/data/farm_serve_digests.json`` (the ``farm`` pin of
``tests/pins.py``) were generated on the commit *before* ``Farm.serve``,
``serve_durable`` and ``serve_resilient`` became configurations of
``Farm._serve``; every case must still hash to the same value.  Regenerate
only with ``PYTHONPATH=<reference checkout>/src python -m tests.pins regen farm``.
"""

from __future__ import annotations

import gc
import os
import sys

import numpy as np
import pytest

from repro.analysis.design_space import default_design_grid
from repro.errors import SchedulerError
from repro.farm import (
    ChaosAction,
    ChaosPlan,
    Dispatch,
    Farm,
    FarmView,
    FeedbackScheduler,
    Job,
    NodeJobResult,
    PredictiveScheduler,
    ResilienceConfig,
    ResiliencePolicy,
)
from repro.farm.node import encode_results
from repro.hw.config import AcceleratorConfig
from repro.obs.events import EventKind
from repro.qos import ModeSwitchPolicy
from repro.serve import ServeGateway
from tests import pins as pinned
from tests.farm_days import HalfAtArrival, overlapping_nodes, simulated

PIN = pinned.PINS["farm"]
DIGESTS = PIN.load()["digests"]
SCENARIOS = pinned.resilient_scenarios()


# -- pinned exactness ------------------------------------------------------


@pytest.mark.parametrize("seed", pinned.SEEDS)
@pytest.mark.parametrize("scheduler", pinned.SCHEDULERS)
def test_serial_serve_reproduces_its_digest(scheduler, seed):
    result = pinned.static_farm(scheduler).serve(pinned.static_day(seed))
    assert pinned.static_digest(result) == DIGESTS[f"serve|{scheduler}|seed={seed}"]
    assert result.shed == () and result.resilience is None


@pytest.mark.parametrize("scheduler", pinned.SCHEDULERS)
def test_shipped_paths_equal_the_serial_digest(scheduler, tmp_path):
    jobs = pinned.static_day(0)
    want = DIGESTS[f"serve|{scheduler}|seed=0"]
    shipped = pinned.static_farm(scheduler).serve(jobs, max_workers=2)
    assert pinned.static_digest(shipped) == want
    with ServeGateway(tmp_path / "gw", inline=True) as gateway:
        durable = pinned.static_farm(scheduler).serve_durable(jobs, gateway)
    assert pinned.static_digest(durable) == want


@pytest.mark.parametrize("seed", pinned.SEEDS)
def test_a_plan_answered_day_opens_no_gateway(seed, monkeypatch):
    """The path ``farm_day`` takes: the plan answers every node of a
    predictive day, so ``serve(max_workers=2)`` ships nothing and builds
    no gateway."""

    def refused(*args, **kwargs):
        raise AssertionError("a gateway was built")

    monkeypatch.setattr(ServeGateway, "__init__", refused)
    result = pinned.static_farm("predictive").serve(pinned.static_day(seed), max_workers=2)
    assert pinned.static_digest(result) == DIGESTS[f"serve|predictive|seed={seed}"]


@pytest.mark.parametrize("path", ["max_workers", "gateway"])
def test_shipped_paths_on_an_overlapping_day_equal_the_simulated_farm(
    path, tmp_path, monkeypatch
):
    """Half the day overlaps on node 0, the rest is answered by its plan:
    only node 0 is shipped, and the day equals the one served with every
    node simulated, in outcomes, report and dispatches."""
    jobs = pinned.static_day(0)
    farm = Farm(default_design_grid(), pinned.SERVICES, HalfAtArrival())
    oracle = simulated(Farm(default_design_grid(), pinned.SERVICES, HalfAtArrival()), jobs)
    assert overlapping_nodes(farm, farm.plan(jobs)) == [0]
    shipped: list[int] = []
    submit = ServeGateway.submit

    def spy(gateway, spec, **kwargs):
        shipped.append(spec.assignment.node)
        return submit(gateway, spec, **kwargs)

    monkeypatch.setattr(ServeGateway, "submit", spy)
    if path == "max_workers":
        result = farm.serve(jobs, max_workers=2)
    else:
        with ServeGateway(tmp_path / "gw", inline=True) as gateway:
            result = farm.serve_durable(jobs, gateway)
    assert shipped == [0]
    assert result.outcomes == oracle.outcomes
    assert result.report == oracle.report
    assert result.dispatches == oracle.dispatches


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_shipped_serves_leave_no_file_open():
    """The private gateway closes its journal's connections: four serves
    that ship a node leave this process's open files where they were, with
    the cyclic collector off so that nothing waits on it to close them."""
    jobs = pinned.static_day(0)
    farm = Farm(default_design_grid(), pinned.SERVICES, HalfAtArrival())
    farm.serve(jobs, max_workers=2)  # starts the fork server, once per process
    gc.collect()
    gc.disable()
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(4):
            farm.serve(jobs, max_workers=2)
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        gc.enable()


@pytest.mark.parametrize("name", SCENARIOS)
def test_serve_resilient_reproduces_its_digest(name):
    key = f"serve_resilient|{name}"
    assert PIN.digests(("serve_resilient", name)) == {key: DIGESTS[key]}


# -- every path validates the plan -----------------------------------------


class EarlyBird:
    name = "early-bird"

    def dispatch(self, jobs, view):
        return [Dispatch(job, 0, job.arrival_cycle - 5) for job in jobs]


class OffGrid:
    name = "off-grid"

    def dispatch(self, jobs, view):
        return [Dispatch(job, view.num_nodes, job.arrival_cycle) for job in jobs]


def serve_on(path, farm, jobs, tmp_path):
    if path == "serve":
        return farm.serve(jobs)
    if path == "serve_resilient":
        return farm.serve_resilient(jobs)
    with ServeGateway(tmp_path / "gw", inline=True) as gateway:
        return farm.serve_durable(jobs, gateway)


@pytest.mark.parametrize("path", ["serve", "serve_durable", "serve_resilient"])
@pytest.mark.parametrize(
    "scheduler, message",
    [(EarlyBird, "'early-bird' dispatched job 0 before it arrived"),
     (OffGrid, "'off-grid' used node 4, was offered 4")],
)
def test_bad_plans_are_refused_the_same_way(path, scheduler, message, tmp_path):
    farm = Farm(pinned.default_design_grid(), pinned.SERVICES, scheduler())
    with pytest.raises(SchedulerError, match=message):
        serve_on(path, farm, pinned.static_day(0), tmp_path)


def test_worker_kills_are_not_silently_ignored():
    with pytest.raises(SchedulerError, match="'kill_worker'"):
        ChaosAction("kill_worker", 0)


# -- the loop and the policy over a fake backend ---------------------------

ESTIMATES = [[4_000, 9_000, 15_000], [2_000, 5_000, 8_000], [3_000, 7_000, 11_000]]


class PaperFarm(Farm):
    """A farm whose estimates are written down, not compiled."""

    def _build_view(self):
        return FarmView(3, [s.slo for s in self.services], ESTIMATES)


class FakeNodes:
    """Simulates every node: a job completes at ``dispatch_cycle +
    estimate``; a node in ``kill_at`` stops advancing at that cycle."""

    def __init__(self, view, kill_at=()):
        self.view, self.kill_at = view, dict(kill_at)
        self.clocks = [0] * view.num_nodes
        self.running = [[] for _ in view.nodes]  # (complete_cycle, job_id, service, cycle)

    def simulates(self, node):
        return True

    def take(self, node, hand_overs, harvested, until_cycle):
        raise AssertionError("every node is simulated from the start")

    def submit(self, hand_overs):
        for job_id, service, node, cycle in hand_overs.T.tolist():
            done = cycle + self.view.estimate(node, service)
            self.running[node].append((done, job_id, service, cycle))

    def advance(self, until_cycle, node):
        drained = max((entry[0] for entry in self.running[node]), default=0)
        until = drained if until_cycle is None else until_cycle
        self.clocks[node] = max(self.clocks[node], min(until, self.kill_at.get(node, until)))

    def hang(self, node, until_cycle):
        self.clocks[node] = max(self.clocks[node], until_cycle)

    def harvest(self):
        rows = []
        for n, running in enumerate(self.running):
            ready = [entry for entry in running if entry[0] <= self.clocks[n]]
            self.running[n] = [entry for entry in running if entry not in ready]
            rows += [
                (job_id, n, service, cycle, cycle, done)
                for done, job_id, service, cycle in sorted(ready, key=lambda entry: entry[2])
            ]
        return np.array(rows, np.int64).reshape(-1, 6)

    def clock(self, node):
        return self.clocks[node]


def paper_day(scheduler=PredictiveScheduler, **config):
    """A paper farm, a day of jobs, and a 100k-cycle-epoch resilience config."""
    farm = PaperFarm([AcceleratorConfig.small()] * 3, pinned.SERVICES, scheduler())
    config = ResilienceConfig(epoch_cycles=100_000, **config)
    return farm, pinned.resilient_day(), config


def serve_fake(farm, jobs, config, nodes, chaos=None):
    return farm._serve(jobs, ResiliencePolicy(farm, nodes, config, chaos))


class FakeMeasure:
    """A one-epoch day's measure that records what it is asked and
    answers each hand-over with ``dispatch_cycle + estimate``."""

    def __init__(self, view):
        self.view, self.calls = view, []

    def __call__(self, assignments):
        self.calls.append([a.node for a in assignments])
        return [
            encode_results([
                NodeJobResult(job_id, a.node, service, cycle, cycle,
                              cycle + self.view.estimate(a.node, service))
                for job_id, service, cycle in a.dispatches
            ])
            for a in assignments
        ], 0


def test_fake_static_day_is_one_epoch_and_exactly_once():
    farm, jobs, _ = paper_day()
    measure = FakeMeasure(farm.view)
    result = farm._serve(jobs, measure)
    assert measure.calls == []  # the predictive plan answers every node
    assert [o.job_id for o in result.outcomes] == [j.job_id for j in jobs]
    assert sorted(result.dispatches, key=lambda d: d.job.job_id) == sorted(
        farm.plan(jobs), key=lambda d: d.job.job_id
    )
    for outcome in result.outcomes:
        cycles = farm.estimate(outcome.node, outcome.service)
        assert outcome.complete_cycle == outcome.dispatch_cycle + cycles


def test_migration_replans_each_stranded_job_exactly_once():
    farm, jobs, config = paper_day(hedge=False)
    result = serve_fake(farm, jobs, config, FakeNodes(farm.view, {1: 650_000}))
    assert [o.job_id for o in result.outcomes] == [j.job_id for j in jobs]
    migrated = [e.data["job_id"] for e in farm.bus.of_kind(EventKind.JOB_MIGRATED)]
    assert migrated and len(migrated) == len(set(migrated))
    assert result.resilience.migrations == len(migrated)
    assert result.resilience.nodes_lost == 1
    handovers = [d.job.job_id for d in result.dispatches]
    for job in jobs:
        assert handovers.count(job.job_id) == (2 if job.job_id in migrated else 1)
    assert not any(o.node == 1 for o in result.outcomes if o.job_id in migrated)


def test_losing_hedge_is_wasted_and_never_reaches_the_join():
    farm, jobs, config = paper_day(FeedbackScheduler, dead_after_cycles=900_000)
    hang = ChaosPlan(
        actions=(ChaosAction("kill_node", 1, at_cycle=600_000, heal_cycle=1_000_000),)
    )
    result = serve_fake(farm, jobs, config, FakeNodes(farm.view), hang)
    ledger = result.resilience
    assert ledger.hedges_dispatched > 0 and ledger.hedges_wasted > 0
    assert ledger.hedges_won + ledger.hedges_wasted >= ledger.hedges_dispatched
    assert ledger.nodes_lost == 0
    # Both copies of a hedged job completed; exactly one is an outcome.
    assert [o.job_id for o in result.outcomes] == [j.job_id for j in jobs]
    assert len(result.dispatches) == len(jobs) + ledger.hedges_dispatched
    wasted = farm.bus.of_kind(EventKind.HEDGE_WASTED)
    assert len(wasted) == ledger.hedges_wasted


def test_shed_plus_completed_is_every_arrival():
    farm, _, config = paper_day(
        mode_switch=ModeSwitchPolicy(capacity_threshold=0.75, shed_min_rank=2)
    )
    jobs = pinned.bronze_tail_day()
    nodes = FakeNodes(farm.view, {1: 300_000, 2: 400_000})
    result = serve_fake(farm, jobs, config, nodes)
    assert result.shed and all(job.service == 2 for job in result.shed)
    assert result.resilience.shed_jobs == len(result.shed)
    accounted = [o.job_id for o in result.outcomes] + [j.job_id for j in result.shed]
    assert sorted(accounted) == [j.job_id for j in jobs]
    assert result.report.total_shed == len(result.shed)


def test_all_nodes_dead_raises():
    farm, jobs, config = paper_day()
    nodes = FakeNodes(farm.view, {0: 100_000, 1: 100_000, 2: 100_000})
    with pytest.raises(SchedulerError, match="lost all 3 nodes"):
        serve_fake(farm, jobs, config, nodes)


def test_a_backend_that_reorders_a_slot_is_caught():
    farm, jobs, config = paper_day()
    nodes = FakeNodes(farm.view)
    harvest = nodes.harvest
    nodes.harvest = lambda: harvest()[::-1]
    with pytest.raises(SchedulerError, match="not the oldest copy"):
        serve_fake(farm, jobs, config, nodes)


class TwoAtOnce:
    """Jobs 0 and 1 handed over together on node 0 (an overlap), jobs 2
    and 3 together on node 2, every other job alone on node 1 at its
    arrival, after the one before it completes."""

    name = "two-at-once"

    def dispatch(self, jobs, view):
        plan, free = [], 0
        for job in jobs:
            if job.job_id < 4:
                plan.append(Dispatch(job, 2 * (job.job_id // 2), 0))
                continue
            cycle = max(job.arrival_cycle, free)
            free = cycle + view.estimate(1, job.service)
            plan.append(Dispatch(job, 1, cycle))
        return plan


def test_a_shipped_day_measures_each_overlapping_node_once():
    """One ``measure`` call, one assignment per overlapping node, in node
    order; none when every node is plan-exact."""
    farm, jobs, _ = paper_day(TwoAtOnce)
    jobs = [Job(0, job.job_id, job.tenant_id, job.service) if job.job_id < 4 else job
            for job in jobs]
    measure = FakeMeasure(farm.view)
    result = farm._serve(jobs, measure)
    assert measure.calls == [[0, 2]]
    assert [o.job_id for o in result.outcomes] == sorted(j.job_id for j in jobs)
    farm, jobs, _ = paper_day()
    measure = FakeMeasure(farm.view)
    farm._serve(jobs, measure)
    assert measure.calls == []
