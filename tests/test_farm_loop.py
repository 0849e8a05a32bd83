"""The one serving loop: pinned exactness, plan validation on every path,
and the loop + resilience policy driven over a fake node backend.

The digests in ``tests/data/farm_serve_digests.json`` were generated by
``tests/regen_farm_digests.py`` on the commit *before* ``Farm.serve``,
``serve_durable`` and ``serve_resilient`` became configurations of
``Farm._serve``; every case must still hash to the same value.
"""

from __future__ import annotations

import json

import pytest

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
from repro.farm.farm import _ShippedNodes
from repro.hw.config import AcceleratorConfig
from repro.obs.events import EventKind
from repro.qos import ModeSwitchPolicy
from repro.serve import ServeGateway
from tests import regen_farm_digests as pinned

DIGESTS = json.loads(pinned.FIXTURE.read_text())["digests"]
SCENARIOS = pinned.resilient_scenarios()


# -- pinned exactness ------------------------------------------------------


def test_fixture_covers_every_case():
    static = {f"serve|{s}|seed={seed}" for s in pinned.SCHEDULERS for seed in pinned.SEEDS}
    resilient = {f"serve_resilient|{name}" for name in SCENARIOS}
    assert set(DIGESTS) == static | resilient


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
    pooled = pinned.static_farm(scheduler).serve(jobs, max_workers=2)
    assert pinned.static_digest(pooled) == want
    with ServeGateway(tmp_path / "gw", inline=True) as gateway:
        durable = pinned.static_farm(scheduler).serve_durable(jobs, gateway)
    assert pinned.static_digest(durable) == want


@pytest.mark.parametrize("name", SCENARIOS)
def test_serve_resilient_reproduces_its_digest(name):
    make_farm, jobs, config, chaos = SCENARIOS[name]
    farm = make_farm()
    result = farm.serve_resilient(jobs, resilience=config, chaos=chaos)
    assert pinned.resilient_digest(farm, result) == DIGESTS[f"serve_resilient|{name}"]


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
    """A job completes at ``dispatch_cycle + estimate``; a node in
    ``kill_at`` stops advancing at that cycle."""

    retries = 0

    def __init__(self, view, kill_at=()):
        self.view, self.kill_at = view, dict(kill_at)
        self.clocks = [0] * view.num_nodes
        self.running = [[] for _ in view.nodes]  # (complete_cycle, dispatch)

    def submit(self, dispatch):
        cycles = self.view.estimate(dispatch.node, dispatch.job.service)
        self.running[dispatch.node].append((dispatch.dispatch_cycle + cycles, dispatch))

    def advance(self, until_cycle, node=None):
        for n in self.view.nodes if node is None else [node]:
            drained = max((done for done, _ in self.running[n]), default=0)
            until = drained if until_cycle is None else until_cycle
            self.clocks[n] = max(self.clocks[n], min(until, self.kill_at.get(n, until)))

    def hang(self, node, until_cycle):
        self.clocks[node] = max(self.clocks[node], until_cycle)

    def harvest(self):
        results = []
        for n, running in enumerate(self.running):
            ready = [entry for entry in running if entry[0] <= self.clocks[n]]
            self.running[n] = [entry for entry in running if entry not in ready]
            results += [
                NodeJobResult(d.job.job_id, n, d.job.service, d.dispatch_cycle, d.dispatch_cycle, done)
                for done, d in sorted(ready, key=lambda entry: entry[1].job.service)
            ]
        return results

    def clock(self, node):
        return self.clocks[node]


def paper_day(scheduler=PredictiveScheduler, **config):
    """A paper farm, a day of jobs, and a 100k-cycle-epoch resilience config."""
    farm = PaperFarm([AcceleratorConfig.small()] * 3, pinned.SERVICES, scheduler())
    config = ResilienceConfig(epoch_cycles=100_000, **config)
    return farm, pinned.resilient_day(), config


def serve_fake(farm, jobs, config, nodes, chaos=None):
    return farm._serve(jobs, nodes, ResiliencePolicy(farm, nodes, config, chaos))


def test_fake_static_day_is_one_epoch_and_exactly_once():
    farm, jobs, _ = paper_day()
    result = farm._serve(jobs, FakeNodes(farm.view))
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


def test_shipped_nodes_refuse_anything_but_one_whole_day_epoch():
    farm, jobs, config = paper_day()
    shipped = _ShippedNodes(farm, lambda assignments: ([], 0))
    with pytest.raises(SchedulerError, match="one whole-day epoch"):
        serve_fake(farm, jobs, config, shipped)
    shipped = _ShippedNodes(farm, lambda assignments: ([], 0))
    shipped.submit(Dispatch(Job(0, 0, 0, 0), 0, 0))
    shipped.advance(None)
    assert shipped.harvest() == []
    for second_epoch in (lambda: shipped.submit(Dispatch(Job(0, 0, 0, 0), 0, 0)),
                         lambda: shipped.advance(None)):
        with pytest.raises(SchedulerError, match="one whole-day epoch"):
            second_epoch()
