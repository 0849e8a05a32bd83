"""The engine's exactness contract, stated once: a matrix of cells.

A :class:`Cell` is one way to drive one workload: the driver
(``MultiTaskSystem``, the ROS ``Executor``, the DSLAM agents), the program
variant, the IAU discipline, what is armed, timing-only or functional
cores, a fresh compile or a ``CompileCache`` hit, and how the run
advances: once, in chunked ``until_cycle`` pauses, or resumed from a
snapshot (``capture_state`` -> pickle -> ``restore_state``, or
``snapshot_system`` / ``restore_system`` through a file).  Every cell runs
on the batched engine and must equal its *golden*: the same workload and
seed, stepped (:func:`stepped`), freshly compiled and run once.  Each
golden is computed live by stepping the same driver, so it is itself held
to a :func:`digest` pinned from a reference checkout (the ``golden`` pin
of ``tests/pins.py``, ``tests/data/golden_digests.json``): a change to a
driver cannot move a golden together with its cells.

:func:`valid` says which combinations exist.  :data:`TIER1` is every
:data:`PINNED` cell plus a greedy pairwise cover of the rest of the valid
product.  :func:`observe` is a run's whole observable surface as one dict,
so a mismatch names the first field that differs, and :func:`check` holds
one cell to its golden.  The :data:`NAMED` pinned cells run under the names
of the differential tests that first pinned them; the matrix test runs the
rest (:data:`MATRIX`).
"""

from __future__ import annotations

import enum
import hashlib
import json
import pickle
import random
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cache, lru_cache
from itertools import combinations, product
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np
import pytest

from repro.compiler.cache import CompileCache
from repro.dslam import DslamScenario
from repro.dslam.agent import CAMERA_TOPIC, PLACE_TOPIC
from repro.dslam.camera import frame_period_cycles
from repro.dslam.system import build_agent
from repro.dslam.world import World
from repro.errors import CheckpointError, EccError
from repro.estimate import estimate_job_cycles
from repro.faults import DegradationPolicy, FaultPlan, FaultSite
from repro.faults.campaign import default_rates
from repro.hw.config import AcceleratorConfig
from repro.iau.fastpath import BATCH_FAULT_SITES
from repro.iau.unit import Iau
from repro.obs.config import ObsConfig
from repro.qos import AdmissionPolicy, QosConfig
from repro.qos.config import BackpressureProfile
from repro.ros import Executor
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.serve import restore_system, snapshot_system
from repro.zoo import build_tiny_cnn, build_tiny_conv, build_tiny_residual

CONFIG = AcceleratorConfig.worked_example()


def stepped(patch: pytest.MonkeyPatch) -> None:
    """The oracle: every ``run_batched`` call degenerates to one ``step()``."""
    patch.setattr(Iau, "run_batched", lambda self, horizon=None: self.step())


# -- the axes -----------------------------------------------------------------

AXES: dict[str, tuple] = {
    "driver": ("runtime", "ros", "dslam"),
    "variant": ("vi", "layer", "none"),
    "iau": ("virtual", "cpu"),
    "armed": ("off", "obs", "faults", "qos", "all", "backpressure"),
    "core": ("timing", "functional"),
    "artefact": ("fresh", "cached"),
    "advance": ("one", "chunked", "pickled", "disk"),
    "seed": (0, 1, 2, 3),
}

#: What each ``armed`` value switches on.  Every value but ``off`` records
#: events, so fault and QoS cells compare their whole event stream (and the
#: QoS invariant monitor, which rides the bus, has one).
ARMED = {
    "off": set(),
    "obs": {"events", "metrics"},
    "faults": {"events", "faults"},
    "qos": {"events", "qos"},
    "all": {"events", "metrics", "faults", "qos"},
    "backpressure": {"events", "faults", "backpressure"},
}
RESUMED = ("pickled", "disk")


@dataclass(frozen=True, order=True)
class Cell:
    driver: str
    variant: str = "vi"
    iau: str = "virtual"
    armed: str = "off"
    core: str = "timing"
    artefact: str = "fresh"
    advance: str = "one"
    seed: int = 0
    #: A pinned workload; empty for the driver's default one.
    workload: str = ""

    def __str__(self) -> str:
        name = "-".join(str(getattr(self, axis)) for axis in AXES)
        return f"{name}@{self.workload}" if self.workload else name


def valid(cell: Cell) -> bool:
    """Whether ``cell`` exists; each clause names why a combination does not."""
    armed = ARMED[cell.armed]
    return not (
        # capture_state refuses an on_complete hook (every ROS executor,
        # the DSLAM agents' included, sets one).
        (cell.advance in RESUMED and cell.driver != "runtime")
        # Backpressure is a ROS topic profile.
        or ("backpressure" in armed and cell.driver not in ("ros", "dslam"))
        # DslamScenario takes no QosConfig.
        or ("qos" in armed and cell.driver == "dslam")
        # build_agent wires vi programs on the virtual discipline, and the
        # agents never load an input a functional core could compute on.
        or (cell.driver == "dslam" and (cell.variant, cell.iau, cell.core)
            != ("vi", "virtual", "timing"))
    )


# -- artefacts ----------------------------------------------------------------

#: The compiled sets workloads run on: graph builders, weights, seed.
NETS = {
    "tiny": ((build_tiny_cnn, build_tiny_residual, build_tiny_conv), "random", 4),
    "fe_pr": ((build_tiny_conv, build_tiny_cnn), "zeros", 0),
}


@cache
def artefact(nets: str, kind: str) -> tuple[list, list[dict]]:
    """One compile of a set (``cached``: a ``CompileCache`` hit) shared by
    every run on it, with its pristine DDR region contents."""
    builders, weights, seed = NETS[nets]
    graphs = [build() for build in builders]
    if kind == "fresh":
        networks = compile_tasks(graphs, CONFIG, weights=weights, seed=seed, cache=False)
    else:
        with tempfile.TemporaryDirectory() as root:
            store = CompileCache(root)
            compile_tasks(graphs, CONFIG, weights=weights, seed=seed, cache=store)
            networks = compile_tasks(graphs, CONFIG, weights=weights, seed=seed, cache=store)
            assert store.stats.hits == len(graphs)
    pristine = [
        {region.name: region.array.copy() for region in net.layout.ddr.regions()}
        for net in networks
    ]
    return networks, pristine


# -- workloads ----------------------------------------------------------------

#: Every instruction-hosted IAU/DDR site plus both message-level ones, at
#: rates a short ROS run survives often and still fires several of each.
ROS_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.01,
    FaultSite.DDR_STALL: 0.03,
    FaultSite.IAU_DROP_PREEMPT: 0.3,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.003,
    FaultSite.CHECKPOINT_CORRUPT: 0.2,
    FaultSite.JOB_OVERRUN: 0.1,
    FaultSite.ROS_DROP: 0.15,
    FaultSite.ROS_DELAY: 0.15,
}
#: All six IAU/DDR sites at rates that make every armed mechanism of the
#: round-trip workload move.
ROUND_TRIP_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.02,
    FaultSite.DDR_STALL: 0.05,
    FaultSite.IAU_DROP_PREEMPT: 0.3,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.002,
    FaultSite.CHECKPOINT_CORRUPT: 0.3,
    FaultSite.JOB_OVERRUN: 0.1,
}
FRAMES = "frames"
#: The high-priority arrival of the pinned arrival cells, by seed.
ARRIVALS = range(0, 40_001, 4_000)


def ros_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, rates=ROS_RATES, overrun_cycles=3_000, ros_delay_cycles=2_500)


@dataclass
class Subject:
    """A built cell: its systems, the legs that advance them, its logs."""

    nets: list
    systems: list = field(default_factory=list)
    executors: list = field(default_factory=list)
    #: One :func:`leg` per run: the system's, the executor's, each agent's.
    legs: list = field(default_factory=list)
    logs: dict = field(default_factory=dict)
    pauses: range | None = None
    plan: FaultPlan | None = None
    crash: str | None = None
    midrun: int = 0
    observed: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)


def leg(run: Callable, done: Callable[[], bool]) -> tuple[Callable, Callable]:
    """``(pause, finish)``: ``pause(cycle)`` runs to a pause point and says
    whether the run is still mid-way, ``finish()`` drains."""

    def pause(cycle: int) -> bool:
        run(until_cycle=cycle)
        return not done()

    return pause, run


def every(slot: int, first: int, period: int, count: int) -> list[tuple[int, int]]:
    return [(slot, first + index * period) for index in range(count)]


def scheduled(tasks: tuple, arrivals: Callable[[int], list]) -> Callable:
    """A workload that attaches ``tasks`` — ``(slot, net index, add_task
    keywords)`` — and submits ``arrivals(seed)``, ``(slot, cycle)`` pairs."""

    def setup(cell: Cell, subject: Subject) -> None:
        system = subject.systems[0]
        for slot, net, kwargs in tasks:
            system.add_task(slot, subject.nets[net], vi_mode=cell.variant, **kwargs)
        for slot, cycle in arrivals(cell.seed):
            system.submit(slot, cycle)

    return setup


#: Slot 0 runs the residual net, pre-empting slot 1's CNN; and the reverse.
HIGH_LOW = ((0, 1, {}), (1, 0, {}))
CNN_FIRST = ((0, 0, {}), (1, 1, {}))


def round_trip(cell: Cell, subject: Subject) -> None:
    """Three slots, tuned so every armed mechanism really moves: all six
    fault sites fire, slot 0 suffers inversions and a slack denial, slot 1
    parks BLOCKed requests, slot 2 (slot 1's EDF peer) is shed and
    down-tiered, checkpoints roll back, deadlines are missed."""
    system, (cnn, residual, conv) = subject.systems[0], subject.nets
    tight = estimate_job_cycles(CONFIG, residual, residual.program_for("vi")) + 1_500
    system.add_task(0, residual, vi_mode=cell.variant, deadline_cycles=tight)
    system.add_task(1, cnn, vi_mode=cell.variant, deadline_cycles=200_000, priority=1)
    system.add_task(2, conv, vi_mode=cell.variant, deadline_cycles=150_000, priority=1)
    for cycle in (0, 1_000, 2_000, 3_000, 5_000, 10_000, 40_000, 41_000, 80_000):
        system.submit(1, cycle)
    for cycle in (500, 1_500, 2_500, 3_500, 42_000, 43_000):
        system.submit(2, cycle)
    for cycle in (8_000, 9_000, 30_000, 48_000, 70_000, 90_000):
        system.submit(0, cycle)


#: Resumed cells of the ``columns`` workload snapshot here: after round-trip's
#: first checkpoint rollback has completed, before its arrival tail starts.
COLUMNS_CUT = 120_000


def columns(cell: Cell, subject: Subject) -> None:
    """Round-trip's schedule plus a tail of arrivals on every slot after
    :data:`COLUMNS_CUT`: a snapshot at the cut holds a long request heap,
    and completed jobs that were degraded, missed a deadline and retried a
    checkpoint (the column codec's sparse extras)."""
    round_trip(cell, subject)
    for index in range(24):
        subject.systems[0].submit(index % 3, COLUMNS_CUT + 10_000 * (index + 1))


def bare(cell: Cell, subject: Subject) -> None:
    """A seeded FE/PR mission: a camera timer publishes frames; FE (slot 0)
    runs every frame and post-processes after a delay, PR (slot 1) runs when
    free.  The seed draws the frame period, the delays and the pause chunk."""
    system, (fe, pr) = subject.systems[0], subject.nets
    rng = random.Random(cell.seed)
    system.add_task(0, fe, vi_mode=cell.variant, deadline_cycles=rng.randrange(2_000, 6_000))
    system.add_task(1, pr, vi_mode=cell.variant)
    executor = Executor(system)
    if "backpressure" in ARMED[cell.armed]:
        retry = rng.randrange(200, 900)
        profile = BackpressureProfile(depth=2, reliable=True, retry_base_cycles=retry)
        executor.set_qos(FRAMES, profile)
    fe_done: list[int] = []
    pr_seqs: list[int] = []
    pr_busy = [False]
    postproc = rng.randrange(0, 1_500)

    def on_frame_fe(seq: int) -> None:
        executor.submit_job(
            0, lambda job: executor.schedule_after(postproc, lambda: fe_done.append(seq))
        )

    def on_frame_pr(seq: int) -> None:
        if pr_busy[0]:
            return
        pr_busy[0] = True

        def done(job) -> None:
            pr_seqs.append(seq)
            pr_busy[0] = False
            executor.publish("places", seq)

        executor.submit_job(1, done)

    executor.subscribe(FRAMES, on_frame_fe)
    executor.subscribe(FRAMES, on_frame_pr)
    period, offset = rng.randrange(1_500, 7_000), rng.randrange(0, 500)
    frames = iter(range(24))
    executor.create_timer(
        period, lambda: executor.publish(FRAMES, next(frames)), count=24, offset=offset
    )
    chunk = rng.randrange(900, 5_000)
    subject.pauses = range(chunk, offset + 23 * period, chunk)
    subject.executors.append(executor)
    subject.legs.append(leg(executor.run, lambda: executor.drained))
    subject.logs = {"fe_done": fe_done, "pr_seqs": pr_seqs}


def pause_points(cell: Cell, subject: Subject) -> None:
    """PR at 0, FE pre-empting it at 3,000, a second PR at 30,000."""
    scheduled(HIGH_LOW, lambda seed: [])(cell, subject)
    executor = Executor(subject.systems[0])
    done: list = []
    executor.schedule(0, lambda: executor.submit_job(1, done.append))
    executor.schedule(3_000, lambda: executor.submit_job(0, done.append))
    executor.schedule(30_000, lambda: executor.submit_job(1, done.append))
    chunk = (700, 2_000, 4_999)[cell.seed % 3]
    subject.pauses = range(chunk, 30_000, chunk)
    subject.executors.append(executor)
    subject.legs.append(leg(executor.run, lambda: executor.drained))
    subject.logs = {"done": done}


def at_completion(cell: Cell, subject: Subject) -> None:
    """Arrivals land on exactly the cycle a running job's last instruction
    retires (``clock == horizon``), so that job's completion must wait for
    the next call, after the arrival is delivered: ``JOB_SUBMIT`` before
    ``JOB_COMPLETE``, as stepped.  Slot 1's job runs alone from 0; both
    slots get a job at its last retire, slot 1 another at slot 0's."""
    cnn, residual = subject.nets[0], subject.nets[1]
    first = cnn.meta(cell.variant).total_cycles
    second = first + residual.meta(cell.variant).total_cycles
    arrivals = [(1, 0), (0, first), (1, first), (1, second)]
    if cell.driver != "ros":
        scheduled(HIGH_LOW, lambda seed: arrivals)(cell, subject)
        return
    scheduled(HIGH_LOW, lambda seed: [])(cell, subject)
    executor = Executor(subject.systems[0])
    done: list = []
    for slot, cycle in arrivals:
        executor.schedule(cycle, lambda slot=slot: executor.submit_job(slot, done.append))
    subject.executors.append(executor)
    subject.legs.append(leg(executor.run, lambda: executor.drained))
    subject.logs = {"done": done}


@cache
def world() -> World:
    return World.generate(DslamScenario().world)


def agents(cell: Cell, subject: Subject) -> None:
    """Both agents of a small E10 mission, built exactly as ``run_dslam``
    builds them, each run to completion before the next."""
    fe, pr = subject.nets
    scenario = DslamScenario(
        num_frames=24, fps=2000.0, speed=150.0, seed=cell.seed,
        obs=obs_config(cell), faults=subject.plan,
    )
    period = frame_period_cycles(CONFIG.clock.hz, scenario.fps)
    chunk = period * (3 + cell.seed) // 10
    subject.pauses = range(chunk, 23 * period, chunk)
    built = []
    for index, (start_fraction, clockwise) in enumerate(scenario.starts):
        agent = build_agent(
            f"agent{index + 1}", world(), fe, pr, scenario,
            start_fraction=start_fraction, clockwise=clockwise, seed=cell.seed + index,
        )
        if "backpressure" in ARMED[cell.armed]:
            agent.executor.set_qos(CAMERA_TOPIC, BackpressureProfile(depth=2, reliable=True))
        agent.executor.subscribe(PLACE_TOPIC, agent.descriptors.append)  # as agent.run()
        subject.systems.append(agent.executor.system)
        subject.executors.append(agent.executor)
        subject.legs.append(leg(agent.executor.run, lambda: agent.executor.drained))
        built.append(agent)
    subject.logs = {
        "fe_jobs": [agent.fe_node.jobs for agent in built],
        "pr_jobs": [agent.pr_node.jobs for agent in built],
        "pr_seqs": [agent.pr_node.processed_seqs for agent in built],
    }


CAMPAIGN = scheduled(
    ((0, 0, {}), (1, 1, {"deadline_cycles": 120_000})), lambda _: [(1, 0), (0, 8_000)]
)


@dataclass(frozen=True)
class Workload:
    """A job schedule on a compiled set, and what arming it means."""

    setup: Callable[[Cell, Subject], None]
    nets: str = "tiny"
    plan: Callable[[int], FaultPlan] = lambda seed: FaultPlan(seed=seed, rates=default_rates())
    qos: QosConfig = QosConfig(
        admission=AdmissionPolicy.SHED_OLDEST, queue_depth=2, monitor=True, monitor_mode="report"
    )
    degradation: DegradationPolicy | None = None
    #: Snapshot cut of resumed cells (default: a seeded cycle before the end).
    cut: int | None = None
    #: Its golden switches tasks more often than it runs jobs.
    preempts: bool = False
    #: The sites its fault cells must fire across their seeds.
    fires: frozenset = frozenset(BATCH_FAULT_SITES)


WORKLOADS = {
    # Dense enough that jobs overlap and pre-empt mid-stream.
    "periodic": Workload(
        scheduled(HIGH_LOW, lambda _: every(1, 0, 9_000, 6) + every(0, 2_500, 11_000, 5)),
        preempts=True,
    ),
    # One job per task, the high-priority one landing mid-way through the
    # other: each output is computed from pristine DDR, where a repeated job
    # would find its predecessor's intermediates and mask a stale read.
    "single-jobs": Workload(
        scheduled(HIGH_LOW, lambda seed: [(1, 0), (0, 2_000 + 500 * seed)]), preempts=True
    ),
    "arrival": Workload(
        scheduled(HIGH_LOW, lambda seed: [(1, 0), (0, ARRIVALS[seed % len(ARRIVALS)])])
    ),
    "one-core": Workload(scheduled(CNN_FIRST, lambda _: [(1, 0), (0, 3_000)]), nets="fe_pr"),
    # The stock fault-campaign scenario: slot 0 pre-empts slot 1 on a VIR_SAVE.
    "campaign": Workload(CAMPAIGN),
    # Uncorrectable flips and checkpoint corruption dense enough to crash.
    "crash": Workload(CAMPAIGN, plan=lambda seed: FaultPlan(seed=seed, rates={
        FaultSite.DDR_BIT_FLIP: 0.05,
        FaultSite.DDR_STALL: 0.02,
        FaultSite.CHECKPOINT_CORRUPT: 0.6,
        FaultSite.IAU_DROP_PREEMPT: 0.3,
        FaultSite.IAU_SPURIOUS_PREEMPT: 0.01,
    }, uncorrectable_share=0.5)),
    "zero-rate": Workload(
        CAMPAIGN, plan=lambda seed: FaultPlan(seed=seed, rates={}), fires=frozenset()
    ),
    "monitor": Workload(
        scheduled(HIGH_LOW, lambda _: every(0, 1_000, 9_000, 8) + every(1, 0, 7_000, 10)),
        qos=QosConfig(monitor=True, monitor_mode="report", edf_tiebreak=True),
    ),
    # Overlapping rounds under campaign rates; step-outs land mid-round.
    "step-out": Workload(
        scheduled(CNN_FIRST, lambda _: [
            job for index in range(4)
            for job in ((1, index * 30_000), (0, 8_000 + index * 25_000))
        ])
    ),
    "snapshot": Workload(
        scheduled(CNN_FIRST, lambda _: [
            *[(1, cycle) for cycle in (0, 5_000, 10_000, 40_000, 41_000, 80_000)],
            *[(0, cycle) for cycle in (8_000, 9_000, 48_000)],
        ]),
        plan=lambda seed: FaultPlan(seed=seed, rates={
            FaultSite.CHECKPOINT_CORRUPT: 0.3,
            FaultSite.DDR_BIT_FLIP: 0.02,
            FaultSite.DDR_STALL: 0.05,
        }),
        qos=QosConfig(
            admission=AdmissionPolicy.REJECT, queue_depth=2, monitor=True, monitor_mode="report"
        ),
        cut=20_000,
        fires=frozenset({FaultSite.DDR_BIT_FLIP, FaultSite.DDR_STALL}),
    ),
    "round-trip": Workload(
        round_trip,
        plan=lambda seed: FaultPlan(seed=0, rates=ROUND_TRIP_RATES, overrun_cycles=3_000),
        qos=QosConfig(
            admission=AdmissionPolicy.BLOCK, queue_depth=2, slack_admission=True,
            min_task_id=0, edf_tiebreak=True, detect_inversion=True, monitor=True,
            monitor_mode="report",
        ),
        degradation=DegradationPolicy(max_pending=2, min_task_id=2, downtier_pending=1),
    ),
    "bare": Workload(
        bare, nets="fe_pr", plan=ros_plan,
        qos=QosConfig(monitor=True, monitor_mode="report"), fires=frozenset(ROS_RATES),
    ),
    "pause-points": Workload(
        pause_points, plan=lambda seed: FaultPlan(seed=seed, rates={FaultSite.DDR_BIT_FLIP: 0.05})
    ),
    "mission": Workload(agents, nets="fe_pr", plan=ros_plan),
    "at-completion": Workload(at_completion),
}
WORKLOADS["columns"] = replace(WORKLOADS["round-trip"], setup=columns, cut=COLUMNS_CUT)


def workload_name(cell: Cell) -> str:
    """The cell's pinned workload, else its driver's default."""
    return cell.workload or {"ros": "bare", "dslam": "mission"}.get(cell.driver, "periodic")


def obs_config(cell: Cell) -> ObsConfig:
    armed = ARMED[cell.armed]
    return ObsConfig(
        functional=cell.core == "functional", events="events" in armed, metrics="metrics" in armed
    )


def build(cell: Cell) -> Subject:
    """``cell``'s systems on pristine DDR contents, tasks attached, work
    scheduled, nothing run."""
    work = WORKLOADS[workload_name(cell)]
    networks, pristine = artefact(work.nets, cell.artefact)
    for net, regions in zip(networks, pristine):
        for region in net.layout.ddr.regions():
            region.array[...] = regions[region.name]
    if cell.core == "functional":
        rng = np.random.default_rng(7)
        for net in networks:
            shape = net.layout.ddr.region(net.input_region).array.shape
            net.set_input(rng.integers(-8, 8, size=shape).astype(np.int8))
    armed = ARMED[cell.armed]
    plan = work.plan(cell.seed) if "faults" in armed else None
    subject = Subject(nets=networks, plan=plan)
    if cell.driver != "dslam":  # agents() builds a system per agent
        subject.systems.append(MultiTaskSystem(
            CONFIG, cell.iau, obs=obs_config(cell), faults=plan,
            qos=work.qos if "qos" in armed else None, degradation=work.degradation,
        ))
    work.setup(cell, subject)
    if not subject.legs:
        system = subject.systems[0]
        subject.legs.append(leg(system.run, lambda: system.done))
    return subject


# -- running and observing ------------------------------------------------------


def surface(system) -> dict:
    """One system's observable state."""

    def optional(name: str, read: Callable) -> object:
        part = getattr(system, name, None)
        return None if part is None else read(part)

    iau = system.iau
    return {
        "clock": iau.clock,
        "jobs": [
            [asdict(job) for job in context.completed]
            for context in iau.contexts if context is not None
        ],
        "stats": [asdict(iau.core.stats)],
        "iau": [{name: getattr(iau, name) for name in Iau.STATE}],
        "events": optional("bus", lambda bus: list(bus.events)),
        "faults": optional("faults", lambda plan: list(plan.injected)),
        "pending_flips": system.ddr.pending_flip_count,
        "metrics": optional("metrics", lambda metrics: metrics.snapshot()),
        "violations": optional("monitor", lambda monitor: [str(v) for v in monitor.violations]),
        "admission": optional("admission", lambda a: (list(a.outcomes), dict(a.denied))),
        "shed": optional("shed", dict),
    }


def observe(subject: Subject, functional: bool) -> dict:
    """Everything a caller could look at after the run, as one dict."""
    systems = [surface(system) for system in subject.systems]
    return {
        "crash": subject.crash,
        **{key: [seen[key] for seen in systems] for key in systems[0]},
        "executor_clock": [executor.clock for executor in subject.executors],
        "outputs": [net.get_output().tobytes() for net in subject.nets] if functional else None,
        **subject.logs,
    }


def resume(cell: Cell, subject: Subject, golden_clock: int) -> Subject:
    """Run to the cut (batched on odd seeds), snapshot, and return a fresh
    build restored from the snapshot."""
    system = subject.systems[0]
    cut = WORKLOADS[workload_name(cell)].cut or random.Random(cell.seed).randrange(1, golden_clock)
    system.run(until_cycle=cut, batched=cell.seed % 2 == 1)
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "cell.snap"
        if cell.advance == "disk":
            snapshot_system(system, path)
        else:
            blob = pickle.dumps(system.capture_state())
        fresh = build(cell)  # restores pristine DDR under the paused system
        if cell.advance == "disk":
            restore_system(fresh.systems[0], path)
        else:
            fresh.systems[0].restore_state(pickle.loads(blob))
    assert fresh.systems[0].clock == system.clock
    fresh.midrun = int(not system.done)
    return fresh


def run_cell(cell: Cell, golden: Subject | None = None) -> Subject:
    """Build ``cell``, advance it the cell's way and observe it."""
    subject = build(cell)
    try:
        if cell.advance in RESUMED:
            subject = resume(cell, subject, golden.observed["clock"][0])
            # The seed mixes batched and stepped legs on each side.
            subject.systems[0].run(batched=cell.seed % 3 != 0)
        else:
            for pause, finish in subject.legs:
                if cell.advance == "chunked":
                    clock = golden.observed["clock"][0]
                    step = clock // (3 + cell.seed % 4)
                    pauses = subject.pauses or range(step, clock, step)
                    subject.midrun += sum(pause(cycle) for cycle in pauses)
                finish()
    except (EccError, CheckpointError) as exc:
        subject.crash = f"{type(exc).__name__}: {exc}"
    subject.observed = observe(subject, cell.core == "functional")
    subject.counts = sum(
        (Counter(system.iau.dispatch_counts) for system in subject.systems),
        Counter(),
    )
    return subject


def golden_cell(cell: Cell) -> Cell:
    return replace(
        cell,
        workload=workload_name(cell),
        artefact="fresh",
        advance="one",
    )


def canonical(value: object) -> object:
    """``value`` as JSON data that two interpreters agree on byte for byte.

    Lists stay arrays; everything else that is not a JSON scalar becomes a
    one-key object naming its kind (an enum, a record: its class), so a
    tuple, a list and a record never collide.  Dicts and sets are sorted
    (``==`` ignores their order); a dataclass keeps only the fields ``==``
    compares, in declaration order.
    """
    if type(value) in _PLAIN:
        return value
    encode = _ENCODERS.get(type(value))
    if encode is None:
        encode = _ENCODERS[type(value)] = _encoder(type(value))
    return encode(value)


_PLAIN = frozenset({int, str, bool, type(None)})


def _items(values: Iterable[object]) -> list:
    return [value if type(value) in _PLAIN else canonical(value) for value in values]


def _encoder(kind: type) -> Callable[[object], object]:
    name = kind.__name__
    if issubclass(kind, enum.Enum):
        return lambda value: {name: canonical(value.value)}
    if issubclass(kind, (bool, np.bool_)):
        return bool
    if issubclass(kind, (int, np.integer)):
        return int
    if issubclass(kind, str):
        return str
    if issubclass(kind, float):
        return lambda value: {"float": value.hex()}
    if issubclass(kind, bytes):
        return lambda value: {"bytes": value.hex()}
    if issubclass(kind, list):
        return _items
    if issubclass(kind, tuple):
        tag = name if hasattr(kind, "_fields") else "tuple"
        return lambda value: {tag: _items(value)}
    if issubclass(kind, Mapping):
        return _map
    if issubclass(kind, (set, frozenset)):
        return lambda value: {"set": _sorted(_items(value))}
    if is_dataclass(kind):
        names = [f.name for f in fields(kind) if f.compare]
        if len(names) < 2:
            return lambda value: {name: _items(getattr(value, f) for f in names)}
        compared = attrgetter(*names)
        return lambda value: {name: _items(compared(value))}
    raise TypeError(f"no canonical encoding for {name}")


_ENCODERS: dict[type, Callable[[object], object]] = {}


def _map(value: Mapping) -> object:
    if all(type(key) is str for key in value):  # the common case, sorted as is
        keys = sorted(value)
        return {"map": [keys, _items(map(value.__getitem__, keys))]}
    return {"map": _sorted([canonical(key), canonical(item)] for key, item in value.items())}


def _sorted(items: Iterable[object]) -> list:
    return sorted(items, key=_encoded)


def _encoded(value: object) -> str:
    return json.dumps(value, separators=(",", ":"))


def digest(observed: dict) -> str:
    """sha256 of an observation's canonical encoding."""
    return hashlib.sha256(_encoded(canonical(observed)).encode()).hexdigest()


@cache
def pinned_digests() -> dict[str, str]:
    """Each golden's :func:`digest` by ``str(golden_cell(cell))``: ``tests/pins.py``."""
    from tests.pins import PINS  # the registry imports this module

    return PINS["golden"].load()["digests"]


def stepped_run(key: Cell) -> Subject:
    """A golden cell, run on the stepped oracle."""
    with pytest.MonkeyPatch.context() as patch:
        stepped(patch)
        return run_cell(key)


@lru_cache(maxsize=4)
def _golden(key: Cell) -> Subject:
    subject = stepped_run(key)
    pinned = pinned_digests().get(str(key))
    regen = "PYTHONPATH=<reference checkout>/src python -m tests.pins regen golden"
    assert pinned is not None, f"no pinned digest for golden {key}: run `{regen}`"
    assert digest(subject.observed) == pinned, f"golden {key} differs from the reference"
    return subject


def golden(cell: Cell) -> Subject:
    """The stepped, freshly compiled, uninterrupted run ``cell`` must equal
    (cells sharing one are adjacent in :data:`TIER1`), itself held to the
    digest pinned from a reference checkout, so a driver change cannot move
    a golden and its cells together."""
    return _golden(golden_cell(cell))


#: What each cell run in this session showed (see :func:`seen`).
RUNS: dict[Cell, dict] = {}


def seen(cell: Cell, subject: Subject | None = None) -> dict:
    """Fault sites fired, whether it crashed, event kinds, dispatch counts
    (a cell not yet run runs here)."""
    if cell not in RUNS:
        subject = subject or run_cell(cell, golden(cell))
        observed = subject.observed
        RUNS[cell] = {
            "sites": {fault.site for plan in observed["faults"] if plan for fault in plan},
            "crashed": observed["crash"] is not None,
            "kinds": {event.kind.value for bus in observed["events"] if bus for event in bus},
            "counts": subject.counts,
        }
    return RUNS[cell]


def check(cell: Cell) -> Subject:
    """Run ``cell``, hold it to its golden and check it is not vacuous: a
    chunked cell pauses mid-run at least twice, a resumed cell snapshots a
    system that is not done, a pre-emption workload switches more often
    than it runs jobs."""
    expected = golden(cell)
    subject = run_cell(cell, expected)
    for key in expected.observed:
        assert subject.observed[key] == expected.observed[key], key
    seen(cell, subject)

    if cell.advance == "chunked":
        assert subject.midrun >= 2
    if cell.advance in RESUMED:
        assert subject.midrun  # snapshotted mid-run
    if (
        WORKLOADS[workload_name(cell)].preempts
        and cell.driver == "runtime"
        and (cell.variant != "none" or cell.iau == "cpu")  # interruptible mid-job
    ):
        jobs = sum(len(records) for system in expected.observed["jobs"] for records in system)
        switches = sum(iau["num_switches"] for system in expected.observed["iau"] for iau in system)
        assert switches > jobs
    return subject


# -- the tier-1 cell set ------------------------------------------------------------

#: The ROS and DSLAM differential cases: what each arms (``chunked`` is the
#: fault case paused every few thousand cycles), over eight seeds.
ROS_CASES = {"plain": "off", "obs_monitor": "qos", "faults": "faults",
             "backpressure": "backpressure", "chunked": "faults"}
DSLAM_CASES = {"plain": "off", "obs": "obs", "faults": "faults",
               "backpressure": "backpressure", "chunked": "faults"}
ROS_SEEDS = range(8)


def case_cell(driver: str, case: str, seed: int) -> Cell:
    """The ``ros`` / ``dslam`` cell of a differential case."""
    cases = ROS_CASES if driver == "ros" else DSLAM_CASES
    advance = "chunked" if case == "chunked" else "one"
    return Cell(driver, armed=cases[case], advance=advance, seed=seed)


#: Pinned cells that run under the name of the differential test that first
#: pinned them, in that test's module, keyed by workload.
NAMED = {
    "campaign": [Cell("runtime", armed="faults", seed=s, workload="campaign") for s in range(12)],
    "crash": [Cell("runtime", armed="faults", seed=s, workload="crash") for s in range(10)],
    "zero-rate": [Cell("runtime", armed="faults", workload="zero-rate")],
    "bare": [case_cell("ros", case, s) for s in ROS_SEEDS for case in ROS_CASES],
    "mission": [case_cell("dslam", case, s) for s in ROS_SEEDS for case in DSLAM_CASES],
    "round-trip": [Cell("runtime", armed="all", advance="pickled", seed=s, workload="round-trip")
                   for s in range(20)],
    "snapshot": [Cell("runtime", armed="all", advance=a, seed=11, workload="snapshot")
                 for a in RESUMED],
    "arrival": [Cell("runtime", seed=s, workload="arrival") for s in range(len(ARRIVALS))],
    "one-core": [Cell("runtime", workload="one-core")],
}


def _pinned() -> list[Cell]:
    cells = [
        Cell("runtime", variant, iau, "obs") for variant in ("vi", "layer")
        for iau in AXES["iau"]
    ]
    cells += [Cell("runtime", "none", armed="obs")]
    cells += [Cell("runtime", armed="qos", workload="monitor")]
    cells += [Cell("ros", armed="obs", advance="chunked", seed=s, workload="pause-points")
              for s in range(3)]
    return cells + [cell for group in NAMED.values() for cell in group]


def pairs(cell: Cell) -> set[tuple]:
    values = [(axis, getattr(cell, axis)) for axis in AXES]
    return set(combinations(values, 2))


def valid_cells() -> list[Cell]:
    cells = (Cell(*values) for values in product(*AXES.values()))
    return [cell for cell in cells if valid(cell)]


def pairwise_cover(covered: list[Cell]) -> list[Cell]:
    """Greedy: add the valid cell that covers the most pairs of axis values
    no cell covers yet, until every pair that occurs in a valid cell does
    (ties go to the first cell in product order)."""
    candidates = valid_cells()
    bits = {pair: bit for bit, pair in enumerate(set().union(*map(pairs, candidates)))}

    def mask(cell: Cell) -> int:
        return sum(1 << bits[pair] for pair in pairs(cell) if pair in bits)

    masks = [mask(cell) for cell in candidates]
    todo = (1 << len(bits)) - 1
    for cell in covered:
        todo &= ~mask(cell)
    chosen = []
    while todo:
        best = max(range(len(candidates)), key=lambda i: (masks[i] & todo).bit_count())
        chosen.append(candidates[best])
        todo &= ~masks[best]
    return chosen


#: Functional cores on a pre-empting workload, every way a run can advance,
#: disarmed and armed: the stretches a functional core batches compute what
#: they save from DDR, and a stepped golden computes it CALC by CALC.  Seed
#: 1 batches both legs of a resumed cell.  They join the tier after the
#: cover, which is taken over :data:`PINNED` alone and so keeps its cells.
FUNCTIONAL = [
    Cell("runtime", variant, armed=armed, core="functional", advance=advance, seed=1,
         workload="single-jobs")
    for variant in ("vi", "layer") for armed in ("off", "faults", "all")
    for advance in ("one", "chunked", "pickled")
]

#: An arrival on the cycle a job's last instruction retires, for each
#: driver that computes a horizon its own way.  Joined after the cover,
#: like :data:`FUNCTIONAL`.
AT_COMPLETION = [
    Cell(driver, armed="obs", workload="at-completion")
    for driver in ("runtime", "ros")
]

#: Both resumed advances of the ``columns`` workload, each leg batched on
#: one seed and stepped on the other.  Joined after the cover, like
#: :data:`FUNCTIONAL`.
COLUMN_CODEC = [
    Cell("runtime", armed="all", advance=advance, seed=seed, workload="columns")
    for advance in RESUMED for seed in (0, 1)
]

#: A fault cell of the default workload that fires every site the batched
#: engine hosts, spurious pre-emptions included: the cover's own fault
#: cells on ``periodic`` need not.  Joined after the cover, like
#: :data:`FUNCTIONAL`.
FAULTS_FIRE = [Cell("runtime", armed="faults", advance="disk", seed=3)]

PINNED = _pinned()
TIER1 = sorted(
    dict.fromkeys(
        PINNED + pairwise_cover(PINNED) + FUNCTIONAL + AT_COMPLETION + COLUMN_CODEC
        + FAULTS_FIRE
    ),
    key=lambda cell: (golden_cell(cell), cell),
)
_NAMED = {cell for group in NAMED.values() for cell in group}
#: The tier-1 cells the matrix test runs itself.
MATRIX = [cell for cell in TIER1 if cell not in _NAMED]
