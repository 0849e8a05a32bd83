"""Declared state (``repro.state``): conformance and exact round trips.

One system with *everything* armed — a FaultPlan on all six IAU/DDR sites,
QoS with BLOCK admission + slack gate + EDF + inversion detection + the
invariant monitor, events + metrics + trace, a down-tiering degradation
policy — is the subject of both halves:

* **conformance** — every attribute of every stateful object that a run
  changes is declared (``STATE`` / ``PARTS`` / ``EXTRA``) or is a cache
  that ``_reset_derived`` drops: a new mutable field that is not declared
  fails here instead of silently falling out of snapshots;
* **round trip** — snapshot at a random cycle, restore into a fresh build,
  finish: clock, job records, event stream and fault log equal the
  uninterrupted run's.
"""

from __future__ import annotations

import io
import pickle
import random

import pytest

from repro.errors import SchedulerError, StateError
from repro.estimate import estimate_job_cycles
from repro.faults import DegradationPolicy, FaultPlan, FaultSite
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.iau.context import TaskContext
from repro.iau.unit import Iau
from repro.obs.config import ObsConfig
from repro.qos import AdmissionPolicy, QosConfig
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.state import Shared, Stateful
from repro.zoo import build_tiny_cnn, build_tiny_conv, build_tiny_residual

CONFIG = AcceleratorConfig.worked_example()
#: A mid-run pause with jobs queued, parked, preempted and completed.
CUT = 45_000

RATES = {
    FaultSite.DDR_BIT_FLIP: 0.02,
    FaultSite.DDR_STALL: 0.05,
    FaultSite.IAU_DROP_PREEMPT: 0.3,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.002,
    FaultSite.CHECKPOINT_CORRUPT: 0.3,
    FaultSite.JOB_OVERRUN: 0.1,
}

#: Attributes a hand-written body captures under another key (``Ddr``
#: copies region arrays out as "regions" and writes them back in place).
HAND_CAPTURED = {Ddr: {"_regions", "_by_base"}}
#: Structural references, rebuilt by construction and never captured: a
#: slot's compiled network (whose lazily filled meta caches and DDR arrays
#: — the latter shared with, and captured by, the system ``Ddr`` — do move).
WIRING = {TaskContext: {"compiled"}}
#: Host-side diagnostics: what the dispatch loop did on this object, not
#: simulated state — a restore rewinds the simulation, not the host's work.
HOST_ONLY = {Iau: {"dispatch_counts"}}


def build_armed() -> MultiTaskSystem:
    """Three slots, tuned (seed 0) so every armed mechanism really moves:
    all six fault sites fire, slot 0 suffers inversions and a slack denial,
    slot 1 parks BLOCKed requests, slot 2 (slot 1's EDF peer) is shed and
    down-tiered, checkpoints roll back, deadlines are missed."""
    system = MultiTaskSystem(
        CONFIG,
        obs=ObsConfig(events=True, metrics=True),
        faults=FaultPlan(seed=0, rates=RATES, overrun_cycles=3_000),
        degradation=DegradationPolicy(max_pending=2, min_task_id=2, downtier_pending=1),
        qos=QosConfig(
            admission=AdmissionPolicy.BLOCK,
            queue_depth=2,
            slack_admission=True,
            min_task_id=0,
            edf_tiebreak=True,
            detect_inversion=True,
            monitor=True,
            monitor_mode="report",
        ),
    )
    # Fresh compiles per build: injected bit flips write the DDR arrays the
    # compiled networks share with the system.
    cnn, residual, conv = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual(), build_tiny_conv()],
        CONFIG,
        weights="random",
        seed=4,
    )
    tight = estimate_job_cycles(CONFIG, residual, residual.program_for("vi")) + 1_500
    system.add_task(0, residual, deadline_cycles=tight)
    system.add_task(1, cnn, deadline_cycles=200_000, priority=1)
    system.add_task(2, conv, deadline_cycles=150_000, priority=1)
    for cycle in (0, 1_000, 2_000, 3_000, 5_000, 10_000, 40_000, 41_000, 80_000):
        system.submit(1, cycle)
    for cycle in (500, 1_500, 2_500, 3_500, 42_000, 43_000):
        system.submit(2, cycle)
    for cycle in (8_000, 9_000, 30_000, 48_000, 70_000, 90_000):
        system.submit(0, cycle)
    return system


def stateful_objects(system: MultiTaskSystem) -> list[Stateful]:
    """The system and everything reachable through PARTS (slots included)."""
    found: list[Stateful] = []
    todo: list[Stateful] = [system]
    while todo:
        obj = todo.pop()
        found.append(obj)
        todo.extend(obj._live_parts().values())
    return found


def attribute_images(objects: list[Stateful]) -> list[dict[str, bytes]]:
    """``vars()`` of each object, each entry pickled on its own.  Other
    stateful objects are pickled as tokens: they answer for themselves."""
    index = {id(obj): position for position, obj in enumerate(objects)}

    def image(value: object) -> bytes:
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: index.get(id(obj))  # type: ignore[method-assign]
        pickler.dump(value)
        return buffer.getvalue()

    return [
        {
            name: image(value)
            for name, value in vars(obj).items()
            if name not in WIRING.get(type(obj), ())
            and name not in HOST_ONLY.get(type(obj), ())
        }
        for obj in objects
    ]


def undeclared_changes(system: MultiTaskSystem, until_cycle: int) -> list[str]:
    objects = stateful_objects(system)
    before = attribute_images(objects)
    system.run(until_cycle=until_cycle)
    assert not system.done
    after = attribute_images(objects)
    for obj in objects:
        obj._reset_derived()
    reset = attribute_images(objects)
    problems = []
    for obj, was, now, dropped in zip(objects, before, after, reset):
        declared = {*obj.STATE, *obj.PARTS, *obj.EXTRA, *HAND_CAPTURED.get(type(obj), ())}
        for name in now:
            if name in declared or now[name] == was.get(name):
                continue
            if dropped[name] != was.get(name):
                problems.append(f"{type(obj).__name__}.{name}")
    return problems


class TestConformance:
    def test_every_subsystem_is_armed_and_exercised(self):
        system = build_armed()
        names = {type(obj).__name__ for obj in stateful_objects(system)}
        assert names == {
            "MultiTaskSystem", "Ddr", "AcceleratorCore", "Iau", "TaskContext",
            "EventBus", "Metrics", "InvariantMonitor",
            "AdmissionController", "FaultPlan",
        }
        system.run()
        assert system.faults.sites_injected() == set(RATES)
        assert [o.reason for o in system.admission.outcomes] == ["no_slack"]
        parked = [e for e in system.bus.events if e.data.get("reason") == "parked"]
        assert len(parked) == 6 and system.shed == {0: 0, 1: 0, 2: 3}
        assert sum(job.degraded for job in system.jobs(2)) == 3
        iau = system.iau
        assert (iau.num_rollbacks, iau.num_deadline_misses, iau.num_inversions) == (2, 12, 4)
        assert system.monitor.ok

    def test_every_changed_attribute_is_declared(self):
        assert undeclared_changes(build_armed(), until_cycle=CUT) == []

    @pytest.mark.parametrize(
        "owner, field",
        [("Iau", "num_switches"), ("TaskContext", "busy_cycles"), ("Ddr", "_pending_flips")],
    )
    def test_an_undeclared_field_is_caught(self, monkeypatch, owner, field):
        system = build_armed()
        cls = next(type(o) for o in stateful_objects(system) if type(o).__name__ == owner)
        monkeypatch.setattr(cls, "STATE", tuple(n for n in cls.STATE if n != field))
        assert f"{owner}.{field}" in undeclared_changes(system, until_cycle=CUT)

    def test_derived_cache_cannot_survive_a_restore(self):
        plan = FaultPlan(seed=3, rates={FaultSite.DDR_STALL: 0.01})
        state = plan.capture_state()
        assert plan.safe_draws(FaultSite.DDR_STALL, 50) > 0 and plan._safe_ahead
        plan.restore_state(state)
        assert plan._safe_ahead == {}

    def test_shared_records_are_not_copied(self):
        system = build_armed()
        system.run(until_cycle=CUT)
        state = system.capture_state()
        assert isinstance(system.bus.events[0], Shared)
        assert all(a is b for a, b in zip(state["bus"]["events"], system.bus.events))
        assert state["bus"]["events"] is not system.bus.events
        assert state["faults"]["injected"][0] is system.faults.injected[0]

    def test_capture_is_detached_and_reusable(self):
        system = build_armed()
        system.run(until_cycle=CUT)
        state = system.capture_state()
        frozen = pickle.dumps(state)
        final = system.run()  # keeps running: the capture must not move
        assert pickle.dumps(state) == frozen
        for _ in range(2):  # one capture seeds many restores
            fresh = build_armed()
            fresh.restore_state(state)
            assert fresh.run() == final
        assert pickle.dumps(state) == frozen


class TestRefusals:
    def test_key_set_is_the_armed_check(self):
        state = build_armed().capture_state()
        plain = MultiTaskSystem(CONFIG, obs=ObsConfig(events=True))
        with pytest.raises(SchedulerError, match="snapshot does not fit.*faults"):
            plain.restore_state(state)

    def test_slot_membership_is_part_of_the_key_set(self):
        system = build_armed()
        state = system.iau.capture_state()
        assert {"contexts[0]", "contexts[1]", "contexts[2]"} < set(state)
        state["contexts[3]"] = state.pop("contexts[2]")
        with pytest.raises(StateError, match=r"contexts\[3\]"):
            system.iau.restore_state(state)

    def test_nested_key_mismatch_touches_nothing(self):
        system = build_armed()
        system.run(until_cycle=CUT)
        state = system.core.capture_state()
        stats = state.pop("stats")
        with pytest.raises(StateError, match="stats"):
            system.core.restore_state(state)
        with pytest.raises(StateError, match="bogus"):
            system.core.restore_state({**state, "stats": stats, "bogus": 1})
        assert system.core.stats == stats

    def test_on_complete_hook_refuses_capture(self):
        system = build_armed()
        system.iau.on_complete = lambda task_id, job: None
        with pytest.raises(SchedulerError, match="on_complete"):
            system.capture_state()


def observables(system: MultiTaskSystem) -> dict[str, object]:
    return {
        "clock": system.clock,
        "jobs": [repr(job) for task in (0, 1, 2) for job in system.jobs(task)],
        "events": [
            (e.kind.value, e.cycle, e.task_id, e.layer_id, e.duration, sorted(e.data.items()))
            for e in system.bus.events
        ],
        "faults": list(system.faults.injected),
        "metrics": system.metrics.snapshot(),
        "violations": [str(v) for v in system.monitor.violations],
        "denied": list(system.admission.outcomes),
        "shed": dict(system.shed),
        "core": system.core.stats,
    }


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def golden(self):
        system = build_armed()
        system.run()
        return observables(system)

    @pytest.mark.parametrize("seed", range(20))
    def test_resume_at_a_random_cycle_is_exact(self, golden, seed):
        cut = random.Random(seed).randrange(1, golden["clock"])
        interrupted = build_armed()
        interrupted.run(until_cycle=cut, batched=bool(seed % 2))
        blob = pickle.dumps(interrupted.capture_state())

        resumed = build_armed()
        resumed.restore_state(pickle.loads(blob))
        assert resumed.clock == interrupted.clock
        resumed.run(batched=bool(seed % 3))
        assert observables(resumed) == golden
