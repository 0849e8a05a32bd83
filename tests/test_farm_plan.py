"""A farm node is its plan: the arithmetic answer held equal to simulation.

A node whose every hand-over starts at or after the previous job's
completion never holds two jobs, so each job runs uninterrupted and
completes ``estimate`` cycles after its dispatch.  Such a node is answered
by its plan, as int64 columns: :func:`~repro.farm.node.answer_plan` (a
one-epoch day) or :class:`~repro.farm.resilience.ResiliencePolicy` (the
resilient loop, epoch by epoch); every other node is simulated.  These
cells hold the answers equal to simulation:

* every pinned farm case of ``tests/pins.py``, node by node against
  :func:`~repro.farm.node.simulate_node`, and served whole with every node
  forced onto the simulator (which must reproduce the pinned digest);
* drawn days under all four schedulers, plus two whose nodes overlap
  (at-arrival, half-at-arrival): the column serve must simulate exactly
  the overlapping nodes and the day still match the all-simulated farm,
  serially and, on two fixed days, on a gateway;
* the column path's edges — an empty day, one job, a node with no jobs,
  two hand-overs at one cycle, a hand-over exactly at the previous
  completion and one a cycle early;
* the resilient loop's epoch ends — on a completion, inside a job's last
  instruction, on a dispatch, idle with later work, drained — a node
  promoted to simulation mid-day, a day of permanent kills that builds no
  system, and drawn chaos days (kills, a hang, hedging on and off,
  pessimistic starting corrections) against the all-simulated farm.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.design_space import default_design_grid
import repro.farm.farm as farm_module
from repro.farm import (
    ChaosAction,
    ChaosPlan,
    Dispatch,
    Farm,
    FcfsScheduler,
    FeedbackScheduler,
    Job,
    PredictiveScheduler,
    ResilienceConfig,
    ResiliencePolicy,
    StaticPartitionScheduler,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
    simulate_node,
)
from repro.farm.farm import _InProcessNodes
from repro.farm.node import answer_plan, compiled_for_services, submit_order
from repro.serve import ServeGateway
from tests import pins as pinned
from tests.farm_days import (
    AtArrival,
    HalfAtArrival,
    assignments,
    overlapping_nodes,
    plan_columns,
    simulated,
)

DIGESTS = pinned.PINS["farm"].load()["digests"]
SCENARIOS = pinned.resilient_scenarios()
_submit_order = attrgetter("dispatch_cycle", "job.job_id")


def node_rows(farm: Farm, dispatches) -> dict[int, bool]:
    """Per node with work in ``dispatches``: is it plan-exact?  Where it
    is, :func:`answer_plan`'s rows for it equal the simulated node's."""
    estimates = np.array(farm.view.estimates, np.int64)
    rows, rest = answer_plan(submit_order(plan_columns(dispatches)), estimates)
    exact = {}
    for assignment in assignments(farm, dispatches):
        node = assignment.node
        exact[node] = node not in rest[2]
        if exact[node]:
            answered = sorted(map(tuple, rows[rows[:, 1] == node].tolist()))
            assert answered == sorted(simulate_node(assignment)), f"node {node}"
    return exact


# -- every pinned farm case ----------------------------------------------------


@pytest.mark.parametrize("seed", pinned.SEEDS)
@pytest.mark.parametrize("scheduler", pinned.SCHEDULERS)
def test_pinned_serve_days_are_their_plans(scheduler, seed):
    farm, jobs = pinned.static_farm(scheduler), pinned.static_day(seed)
    plan = sorted(farm.plan(jobs), key=_submit_order)
    assert all(node_rows(farm, plan).values())  # the shipped schedulers never overlap
    oracle = simulated(pinned.static_farm(scheduler), jobs)
    assert pinned.static_digest(oracle) == DIGESTS[f"serve|{scheduler}|seed={seed}"]
    farm.serve(jobs)
    assert farm.node_systems == [None] * len(farm.node_configs)


@pytest.mark.parametrize("name", SCENARIOS)
def test_pinned_resilient_days_simulate_only_hang_nodes(name):
    """A killed node only stops advancing, which its plan answers; only a
    node that hangs (a kill with a ``heal_cycle``) is simulated."""
    make_farm, jobs, config, chaos = SCENARIOS[name]
    farm = make_farm()
    result = farm.serve_resilient(jobs, resilience=config, chaos=chaos)
    kills = chaos.node_kills() if chaos is not None else {}
    hangs = {node for node, kill in kills.items() if kill.heal_cycle is not None}
    assert [system is not None for system in farm.node_systems] == [
        node in hangs for node in range(len(farm.node_configs))
    ]
    calm = [d for d in result.dispatches if d.node not in hangs]  # submit order
    assert all(node_rows(farm, calm).values())
    oracle = make_farm()
    served = simulated(oracle, jobs, config, chaos)
    assert pinned.resilient_digest(oracle, served) == DIGESTS[f"serve_resilient|{name}"]


# -- drawn days ------------------------------------------------------------------

SCHEDULERS = {
    "fcfs": FcfsScheduler, "static-partition": StaticPartitionScheduler,
    "predictive": PredictiveScheduler, "feedback+predictive": FeedbackScheduler,
    "at-arrival": AtArrival, "half-at-arrival": HalfAtArrival,
}
OVERLAPPING = {"at-arrival", "half-at-arrival"}  # the rest never overlap


@st.composite
def drawn_days(draw):
    tenants = draw(st.integers(1, 4))
    spec = TrafficSpec(
        tenants=tuple(
            TenantSpec(
                i,
                service=draw(st.integers(0, 2)),
                mean_interarrival_cycles=draw(st.integers(8_000, 60_000)),
                pattern=draw(st.sampled_from(pinned.PATTERNS)),
            )
            for i in range(tenants)
        ),
        duration_cycles=draw(st.integers(100_000, 500_000)),
        seed=draw(st.integers(0, 2**16)),
    )
    return draw(st.integers(1, 3)), generate_jobs(spec)


def same_day(result, oracle) -> None:
    assert result.outcomes == oracle.outcomes
    assert result.report == oracle.report
    assert result.dispatches == oracle.dispatches


@given(day=drawn_days(), scheduler=st.sampled_from(sorted(SCHEDULERS)))
@settings(max_examples=60, deadline=None)
def test_drawn_days_match_the_simulated_farm(day, scheduler):
    nodes, jobs = day
    if scheduler == "half-at-arrival":
        nodes = max(nodes, 2)  # node 0 takes the overlaps, the rest the plan
    if scheduler == "at-arrival" and jobs:
        # A twin of the first job, at its arrival on its node: an overlap.
        first = jobs[0]
        twin = first.job_id + nodes * len(jobs)
        jobs = [*jobs, Job(first.arrival_cycle, twin, first.tenant_id, first.service)]

    def make() -> Farm:
        return Farm(default_design_grid()[:nodes], pinned.SERVICES, SCHEDULERS[scheduler]())

    farm = make()
    result = farm.serve(jobs)
    exact = node_rows(farm, sorted(result.dispatches, key=_submit_order))
    if scheduler not in OVERLAPPING:
        assert all(exact.values())
    if scheduler == "at-arrival" and jobs:
        assert not all(exact.values())
    assert {node: system is None for node, system in enumerate(farm.node_systems)} == {
        node: exact.get(node, True) for node in range(nodes)
    }
    same_day(result, simulated(make(), jobs))


@pytest.mark.parametrize("scheduler, seed", [(AtArrival, 1), (HalfAtArrival, 2)])
def test_fixed_days_on_a_gateway_match_the_simulated_farm(scheduler, seed, monkeypatch):
    """``serve(max_workers=2)`` ships exactly the overlapping nodes, each
    once, and the day equals the all-simulated farm."""
    jobs = pinned.static_day(seed)
    farm = Farm(default_design_grid(), pinned.SERVICES, scheduler())
    overlapping = overlapping_nodes(farm, farm.plan(jobs))
    assert 0 < len(overlapping) < 4 or scheduler is AtArrival
    shipped: list[int] = []
    submit = ServeGateway.submit

    def spy(gateway, spec, **kwargs):
        shipped.append(spec.assignment.node)
        return submit(gateway, spec, **kwargs)

    monkeypatch.setattr(ServeGateway, "submit", spy)
    result = farm.serve(jobs, max_workers=2)
    assert shipped == overlapping and farm.node_systems is None
    same_day(result, simulated(Farm(default_design_grid(), pinned.SERVICES, scheduler()), jobs))


# -- the column path's edges -----------------------------------------------------

TWO_NODES = default_design_grid()[:2]
A0 = Farm(TWO_NODES, pinned.SERVICES, PredictiveScheduler()).estimate(0, 0)


class Scripted:
    """Each job handed over as ``script[job_id]`` says: (node, cycle)."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def dispatch(self, jobs, view):
        return [Dispatch(job, *self.script[job.job_id]) for job in jobs]


COLUMN_EDGES = {
    # name: (jobs as (job_id, service), script, simulated nodes)
    "an-empty-day": ([], {}, set()),
    "one-job": ([(0, 0)], {0: (0, 100)}, set()),
    "a-node-with-no-jobs": ([(0, 0), (1, 2)], {0: (1, 100), 1: (1, 200_000)}, set()),
    # Planned job 1 first: submit order puts job 0, the lower id, first.
    "two-at-one-cycle": ([(1, 0), (0, 0), (2, 1)], {0: (0, 500), 1: (0, 500), 2: (1, 0)}, {0}),
    "exactly-at-the-previous-completion": (
        [(0, 0), (1, 0)], {0: (0, 100), 1: (0, 100 + A0)}, set()
    ),
    "a-cycle-early": ([(0, 0), (1, 0)], {0: (0, 100), 1: (0, 99 + A0)}, {0}),
}


@pytest.mark.parametrize("edge", COLUMN_EDGES)
def test_a_column_edge_matches_the_simulated_farm(edge):
    spec, script, simulated_nodes = COLUMN_EDGES[edge]
    jobs = [Job(0, job_id, 0, service) for job_id, service in spec]

    def make() -> Farm:
        return Farm(TWO_NODES, pinned.SERVICES, Scripted(script))

    farm = make()
    result = farm.serve(jobs)
    assert [system is not None for system in farm.node_systems] == [
        node in simulated_nodes for node in range(len(TWO_NODES))
    ]
    same_day(result, simulated(make(), jobs))


# -- the resilient loop's epoch ends ---------------------------------------------

ONE_NODE = default_design_grid()[:1]


def one_node_farm(scheduler=None) -> Farm:
    return Farm(ONE_NODE, pinned.SERVICES, scheduler or PredictiveScheduler())


def drive(script, simulate: bool):
    """Hand a one-node resilient loop ``script`` — a :class:`Dispatch` is
    submitted, a cycle is an epoch end the node advances to and settles
    at — and record the clock after every submit and ``(end, clock,
    settled rows)`` at every end, plus the systems."""
    farm = one_node_farm()
    nodes = _InProcessNodes(farm, [0] if simulate else [])
    policy = ResiliencePolicy(farm, nodes, ResilienceConfig())
    seen = []
    for step in script:
        if isinstance(step, Dispatch):
            policy.submit(step)
            seen.append(policy.clock(0))
        else:
            policy.epoch_end = step
            policy.measure()
            settled = policy.settle(nodes.harvest(), []).tolist()
            seen.append((step, policy.clock(0), settled))
    return seen, farm.node_systems


FARM = one_node_farm()
A, B = FARM.estimate(0, 0), FARM.estimate(0, 2)  # cycles of one job
D_A = 1_000
C_A = D_A + A
D_B = C_A + 2_000
C_B = D_B + B
JOBS = [Dispatch(Job(0, 0, 0, 0), 0, D_A), Dispatch(Job(0, 1, 2, 2), 0, D_B)]
EDGES = {
    "at-cycle-zero": 0,  # the clock does not skip ahead from a pause it is at
    "before-any-work": 500,
    "on-a-dispatch": D_A,
    "mid-job": D_A + A // 3,
    "inside-the-last-instruction": C_A - 1,  # boundary = completion: not yet recorded
    "on-a-completion": C_A,  # not yet recorded either
    "idle-with-later-work": C_A + 1,
    "on-the-later-dispatch": D_B,
    "on-the-last-completion": C_B,
    "idle-and-drained": C_B + 1,
}
LATER = 10 * C_B  # an epoch end long after the node drained


@pytest.mark.parametrize("edge", EDGES)
def test_an_epoch_end_reads_as_on_the_simulated_node(edge):
    end = EDGES[edge]
    script = [*JOBS, end, end + 1, C_B + 5, LATER]
    planned, systems = drive(script, simulate=False)
    assert systems == [None]
    assert planned == drive(script, simulate=True)[0]


def test_a_node_without_work_reads_as_simulated():
    script = [0, 1_000, LATER]
    assert drive(script, simulate=False)[0] == drive(script, simulate=True)[0]


def test_every_instruction_boundary_of_a_job_reads_as_simulated():
    network = compiled_for_services(ONE_NODE[0], pinned.SERVICES)[0]
    boundaries = [D_A + c for c in network.meta(FARM.vi_mode).cum]
    for end in sorted({b + delta for b in boundaries for delta in (-1, 0, 1)}):
        script = [*JOBS, end, LATER]
        assert drive(script, simulate=False)[0] == drive(script, simulate=True)[0], end


def test_a_node_promoted_mid_day_skips_what_it_already_harvested():
    """Job C lands on the node while B runs: the node is simulated from
    then on, replaying A and B, and A is not harvested twice."""
    late = C_A + 1  # A harvested; the clock skipped ahead to B's dispatch
    script = [*JOBS, late, Dispatch(Job(late, 2, 1, 1), 0, D_B + 10), C_B, LATER]
    planned, systems = drive(script, simulate=False)
    assert systems[0] is not None
    assert planned == drive(script, simulate=True)[0]
    harvested = [row[0] for step in planned if type(step) is tuple for row in step[2]]
    assert sorted(harvested) == [0, 1, 2]


class Later:
    """Each job handed over ``delay`` cycles after it arrives."""

    name = "later"

    def __init__(self, delay: int):
        self.delay = delay

    def dispatch(self, jobs, view):
        return [Dispatch(job, 0, job.arrival_cycle + self.delay) for job in jobs]


RESILIENT_EDGES = {
    # name: (arrivals, epoch cycles, scheduler)
    "on-a-completion": ([0], A, None),
    "inside-the-last-instruction": ([1], A, None),
    "on-a-dispatch": ([0, 1], A, None),
    "idle-with-later-work": ([0], 100_000, Later(250_000)),
    "idle-and-drained": ([0], 2 * A, None),
}


@pytest.mark.parametrize("edge", RESILIENT_EDGES)
def test_serve_resilient_at_an_edge_matches_the_simulated_node(edge):
    arrivals, epoch, scheduler = RESILIENT_EDGES[edge]
    jobs = [Job(cycle, job_id, 0, 0) for job_id, cycle in enumerate(arrivals)]
    config = ResilienceConfig(epoch_cycles=epoch)
    farm = one_node_farm(scheduler)
    result = farm.serve_resilient(jobs, resilience=config)
    assert farm.node_systems == [None]
    oracle = one_node_farm(scheduler)
    want = pinned.resilient_digest(oracle, simulated(oracle, jobs, config))
    assert pinned.resilient_digest(farm, result) == want


def test_serve_resilient_promotes_an_overlapping_node_mid_day(monkeypatch):
    """At-arrival hand-overs: two jobs a few epochs apart, then two at
    once.  The node is promoted after harvesting the first two, and the
    day equals the one served with the node simulated throughout."""
    promoted = []
    take = _InProcessNodes.take

    def spy(self, node, hand_overs, harvested, until_cycle):
        promoted.append(harvested)
        return take(self, node, hand_overs, harvested, until_cycle)

    arrivals = [(0, 2), (300_000, 0), (500_000, 2), (500_001, 0)]
    jobs = [Job(cycle, job_id, 0, service) for job_id, (cycle, service) in enumerate(arrivals)]
    config = ResilienceConfig(epoch_cycles=200_000)
    farm = one_node_farm(AtArrival())
    with monkeypatch.context() as patch:
        patch.setattr(_InProcessNodes, "take", spy)
        result = farm.serve_resilient(jobs, resilience=config)
    assert promoted == [2] and farm.node_systems[0] is not None
    oracle = one_node_farm(AtArrival())
    want = pinned.resilient_digest(oracle, simulated(oracle, jobs, config))
    assert pinned.resilient_digest(farm, result) == want
    assert result.outcomes[2].complete_cycle > 500_000 + B  # preempted by job 3


def test_a_day_of_permanent_kills_builds_no_system(monkeypatch):
    """A killed node only stops advancing, which its plan answers: a day
    whose chaos is permanent kills builds no node system at all."""
    make_farm, jobs, config, chaos = SCENARIOS["two-kills"]
    built = []
    monkeypatch.setattr(farm_module, "build_node_system", lambda *args, **kw: built.append(args))
    farm = make_farm()
    result = farm.serve_resilient(jobs, resilience=config, chaos=chaos)
    assert result.resilience.nodes_lost == 2
    assert built == [] and farm.node_systems == [None] * len(farm.node_configs)


@st.composite
def resilient_days(draw):
    """A small resilient day: some nodes killed for good (one survives),
    maybe a transient hang on a survivor, hedging on or off, and a
    feedback scheduler whose starting corrections are pessimistic."""
    nodes = draw(st.integers(2, 3))
    spec = TrafficSpec(
        tenants=tuple(
            TenantSpec(i, service=i, mean_interarrival_cycles=draw(st.integers(20_000, 90_000)))
            for i in range(3)
        ),
        duration_cycles=draw(st.integers(300_000, 900_000)),
        seed=draw(st.integers(0, 2**16)),
    )
    cycles = st.integers(50_000, 800_000)
    killed = draw(st.lists(st.booleans(), min_size=nodes - 1, max_size=nodes - 1))
    actions = [ChaosAction("kill_node", node, at_cycle=draw(cycles)) for node, kill in enumerate(killed) if kill]
    if draw(st.booleans()):  # the last node, a survivor, hangs for a while
        at = draw(cycles)
        actions.append(ChaosAction("kill_node", nodes - 1, at, heal_cycle=at + draw(cycles)))
    corrections = {
        (node, service): draw(st.sampled_from([1.0, 1.25, 1.5, 3.0]))
        for node in range(nodes) for service in range(3)
    }
    config = ResilienceConfig(
        epoch_cycles=draw(st.sampled_from([100_000, 200_000])),
        dead_after_cycles=2_000_000,
        hedge=draw(st.booleans()),
    )
    return nodes, generate_jobs(spec), config, ChaosPlan(tuple(actions)), corrections


@given(day=resilient_days())
@settings(max_examples=30, deadline=None)
def test_drawn_resilient_days_match_the_simulated_farm(day):
    nodes, jobs, config, chaos, corrections = day

    def make() -> Farm:
        scheduler = FeedbackScheduler(initial_correction=corrections)
        return Farm(default_design_grid()[:nodes], pinned.SERVICES, scheduler)

    farm = make()
    result = farm.serve_resilient(jobs, resilience=config, chaos=chaos)
    oracle = make()
    want = pinned.resilient_digest(oracle, simulated(oracle, jobs, config, chaos))
    assert pinned.resilient_digest(farm, result) == want
