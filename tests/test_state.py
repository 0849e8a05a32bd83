"""Declared state (``repro.state``): conformance and refusals.

One system with *everything* armed — a FaultPlan on all six IAU/DDR sites,
QoS with BLOCK admission + slack gate + EDF + inversion detection + the
invariant monitor, events + metrics, a down-tiering degradation policy — is
the subject: every attribute of every stateful object that a run changes is
declared (``STATE`` / ``PARTS`` / ``EXTRA``) or is a cache that
``_reset_derived`` drops, so a new mutable field that is not declared fails
here instead of silently falling out of snapshots.  A snapshot taken at a
random cycle resumes exactly: the round-trip conformance cells
(``tests/conformance.py``).
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import random
from collections import deque

import numpy as np
import pytest

from repro.errors import SchedulerError, StateError
from repro.faults import FaultPlan, FaultSite
from repro.hw.ddr import Ddr
from repro.iau.context import TaskContext
from repro.iau.unit import Iau
from repro.obs.config import ObsConfig
from repro.runtime.system import MultiTaskSystem
from repro.serve import read_snapshot, snapshot_system
from repro.state import Shared, Stateful
from tests.conformance import CONFIG, NAMED, ROUND_TRIP_RATES, Cell, build, check

#: A mid-run pause with jobs queued, parked, preempted and completed.
CUT = 45_000

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
    """Three slots with every subsystem armed and every mechanism moving
    (see the conformance matrix's round-trip workload)."""
    return build(Cell("runtime", armed="all", workload="round-trip")).systems[0]


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
        assert system.faults.sites_injected() == set(ROUND_TRIP_RATES)
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
        assert plan.safe_draws(FaultSite.DDR_STALL, 50) > 0 and plan._ahead
        plan.restore_state(state)
        assert plan._ahead == {}

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


def assert_same_state(got: object, want: object, where: str = "state") -> None:
    """Structural equality, arrays compared by value (dtype included)."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key, value in want.items():
            assert_same_state(got[key], value, f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple, deque)):
        assert len(got) == len(want), where
        for index, (item, expected) in enumerate(zip(got, want)):
            assert_same_state(item, expected, f"{where}[{index}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    elif isinstance(want, random.Random):
        assert got.getstate() == want.getstate(), where
    elif dataclasses.is_dataclass(want):
        for spec in dataclasses.fields(want):
            name = spec.name
            assert_same_state(getattr(got, name), getattr(want, name), f"{where}.{name}")
    elif hasattr(want, "__dict__"):
        assert_same_state(vars(got), vars(want), where)
    else:
        assert got == want, where


class TestSnapshotIsTheCapture:
    def test_snapshot_equals_capture_key_by_key(self, tmp_path):
        """The one-pass snapshot (a pickle of the live ``state_view``)
        reads back as exactly what ``capture_state`` copies."""
        system = build_armed()
        system.run(until_cycle=CUT)
        capture = system.capture_state()
        frozen = pickle.dumps(capture)
        info = snapshot_system(system, tmp_path / "armed.snap")
        _meta, state = read_snapshot(info.path)
        assert list(state) == list(capture)
        for key in capture:
            assert_same_state(state[key], capture[key], key)
        system.run()  # the system runs on: the capture must not move
        assert pickle.dumps(capture) == frozen

    def test_view_is_by_reference(self):
        system = build_armed()
        view = system.state_view()
        for region in system.ddr.regions():
            assert view["ddr"]["regions"][region.name] is region.array
        assert view["bus"]["events"] is system.bus.events


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


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_resume_at_a_random_cycle_is_exact(self, seed):
        """Snapshot at a seeded cycle (batched or stepped up to it), pickle,
        restore into a fresh build, finish: equal to the stepped golden."""
        check(NAMED["round-trip"][seed])
