"""Farm resilience: health-monitored nodes, feedback re-planning, chaos.

A whole-day plan assumes every node survives the day.  This module is the
optional layer that lets the farm's one serving loop
(:meth:`repro.farm.farm.Farm._serve`) survive exactly the interruptions
INCA's single accelerator survives, one level up:

* :class:`NodeHealth` — a per-node heartbeat state machine
  (``HEALTHY → SUSPECT → DEAD``) fed by measured progress each epoch;
* :class:`FeedbackScheduler` — wraps any base
  :class:`~repro.farm.scheduler.Scheduler` with per-``(node, service)``
  EWMA corrections learned from measured completions, closing the
  plan→measure→re-plan loop;
* :class:`ResiliencePolicy` — what
  :meth:`~repro.farm.farm.Farm.serve_resilient` adds to each phase of the
  loop: the epoch's arrivals are planned on the *healthy* nodes only;
  completions feed the corrections and the heartbeats; jobs stranded on a
  dead node are migrated (re-planned from the death point onward — no time
  travel, exactly-once outcomes); overdue jobs on a *suspect* node are
  hedged (speculatively duplicated with first-result-wins dedup); and a
  MESC-style :class:`~repro.qos.config.ModeSwitchPolicy` sheds
  low-criticality classes when surviving capacity drops.  Its copies in
  flight are int64 columns, and a node whose hand-overs never overlap
  is answered off them, epoch by epoch, with no per-job Python;
* :class:`ChaosPlan` — a seeded, deterministic fault plan at farm level:
  kill (or transiently hang) a node at a simulated cycle;
* :func:`run_chaos_campaign` — replays one day under a set of chaos plans
  against the no-fault golden run and checks the hard invariants: zero
  lost jobs, zero duplicated outcomes, a gold-class attainment floor.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.container import HEADER
from repro.errors import SchedulerError
from repro.farm.metrics import build_report, join_outcomes
from repro.farm.node import (
    Int64s,
    NodeJobResult,
    build_node_system,
    compiled_for_services,
    overlapping,
)
from repro.farm.scheduler import (
    Dispatch,
    FarmView,
    PredictiveScheduler,
    Scheduler,
)
from repro.farm.traffic import Job
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.qos.config import ModeSwitchPolicy
from repro.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle (farm imports us)
    from repro.farm.farm import Farm, NodeBackend, ServeResult


# -- node health -----------------------------------------------------------


class HealthState(enum.Enum):
    """One node's liveness as the farm can observe it."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


class NodeHealth:
    """Heartbeat-driven health tracking for every node of a farm.

    A *beat* arrives once per epoch with the node's simulated clock and
    whether it holds unfinished work.  Progress (an advancing clock, or an
    idle node) is a heartbeat; a busy node whose clock froze is stalled —
    ``suspect_after_cycles`` of stall makes it ``SUSPECT`` (hedging
    territory), ``dead_after_cycles`` makes it ``DEAD`` (migration
    territory).  A suspect node that resumes progress returns to
    ``HEALTHY``; death is final.  (A dead worker *process* is not a node
    death: the serving gateway resumes it from its last snapshot.)
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        suspect_after_cycles: int,
        dead_after_cycles: int,
        bus: EventBus | None = None,
    ) -> None:
        if num_nodes < 1:
            raise SchedulerError(f"num_nodes must be >= 1, got {num_nodes}")
        if suspect_after_cycles <= 0:
            raise SchedulerError("suspect_after_cycles must be positive")
        if dead_after_cycles <= suspect_after_cycles:
            raise SchedulerError(
                "dead_after_cycles must exceed suspect_after_cycles"
            )
        self.num_nodes = num_nodes
        self.suspect_after_cycles = suspect_after_cycles
        self.dead_after_cycles = dead_after_cycles
        self.bus = bus
        self._state = [HealthState.HEALTHY] * num_nodes
        self._healthy = self._alive = list(range(num_nodes))
        self._last_clock = [-1] * num_nodes
        self._last_progress = [0] * num_nodes
        #: ``(cycle, node, state)`` transition log, in observation order.
        self.transitions: list[tuple[int, int, HealthState]] = []

    def state(self, node: int) -> HealthState:
        return self._state[node]

    def alive(self, node: int) -> bool:
        return self._state[node] is not HealthState.DEAD

    def healthy_nodes(self) -> list[int]:
        return self._healthy[:]

    def alive_nodes(self) -> list[int]:
        return self._alive[:]

    def _transition(
        self, node: int, state: HealthState, cycle: int, **data: object
    ) -> None:
        self._state[node] = state
        nodes = range(self.num_nodes)
        self._healthy = [n for n in nodes if self._state[n] is HealthState.HEALTHY]
        self._alive = [n for n in nodes if self.alive(n)]
        self.transitions.append((cycle, node, state))
        if self.bus is not None:
            if state is HealthState.SUSPECT:
                self.bus.emit(EventKind.NODE_SUSPECT, cycle=cycle, node=node, **data)
            elif state is HealthState.DEAD:
                self.bus.emit(EventKind.NODE_DOWN, cycle=cycle, node=node, **data)

    def beat(self, node: int, *, clock: int, busy: bool, now: int) -> HealthState:
        """One epoch's observation of ``node``; returns its new state."""
        state = self._state[node]
        if state is HealthState.DEAD:
            return state
        if not busy or clock > self._last_clock[node]:
            self._last_clock[node] = clock
            self._last_progress[node] = now
            if state is HealthState.SUSPECT:
                self._transition(node, HealthState.HEALTHY, now)
            return self._state[node]
        stalled = now - self._last_progress[node]
        if stalled >= self.dead_after_cycles:
            self._transition(
                node, HealthState.DEAD, now,
                reason="missed_heartbeats", stalled_cycles=stalled,
            )
        elif stalled >= self.suspect_after_cycles and state is HealthState.HEALTHY:
            self._transition(
                node, HealthState.SUSPECT, now, stalled_cycles=stalled
            )
        return self._state[node]


# -- chaos plans -----------------------------------------------------------

KILL_NODE = "kill_node"


@dataclass(frozen=True)
class ChaosAction:
    """One planned fault; ``kill_node`` is the one kind.

    The node's host "dies" at simulated cycle ``at_cycle``: its simulation
    stops advancing and its unfinished work must be hedged/migrated.  A
    ``heal_cycle`` turns the death into a transient hang (a GC pause, a
    network partition): the node resumes at that cycle, having done no
    work in between.  (Worker-process crashes are injected through
    :attr:`repro.serve.worker.JobSpec.crash_after_snapshots`.)
    """

    kind: str
    node: int
    at_cycle: int = 0
    heal_cycle: int | None = None

    def __post_init__(self) -> None:
        if self.kind != KILL_NODE:
            raise SchedulerError(
                f"chaos kind must be {KILL_NODE!r}, got {self.kind!r}"
            )
        if self.node < 0:
            raise SchedulerError(f"node must be >= 0, got {self.node}")
        if self.at_cycle < 0:
            raise SchedulerError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.heal_cycle is not None and self.heal_cycle <= self.at_cycle:
            raise SchedulerError("heal_cycle must be after at_cycle")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic set of planned faults for one serving run."""

    actions: tuple[ChaosAction, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
        kills = [a.node for a in self.actions]
        if len(kills) != len(set(kills)):
            raise SchedulerError("at most one kill_node action per node")

    @classmethod
    def random_node_kills(
        cls,
        seed: int,
        *,
        num_nodes: int,
        kills: int,
        window: tuple[int, int],
    ) -> "ChaosPlan":
        """``kills`` distinct nodes killed at seeded cycles inside ``window``."""
        if not 0 <= kills <= num_nodes:
            raise SchedulerError(
                f"kills must be in [0, {num_nodes}], got {kills}"
            )
        lo, hi = window
        if not 0 <= lo < hi:
            raise SchedulerError(f"window must satisfy 0 <= lo < hi, got {window}")
        rng = random.Random(seed * 9_999_991 + kills)
        nodes = sorted(rng.sample(range(num_nodes), kills))
        actions = tuple(
            ChaosAction(KILL_NODE, node, at_cycle=rng.randrange(lo, hi))
            for node in nodes
        )
        return cls(actions=actions, seed=seed)

    def node_kills(self) -> dict[int, ChaosAction]:
        return {a.node: a for a in self.actions}


def poison_snapshot_file(path: str | Path, *, seed: int = 0) -> int:
    """Flip one deterministic payload byte of a snapshot file.

    Returns the flipped offset.  The CRC-checked snapshot format
    (:mod:`repro.serve.snapshot`) is guaranteed to detect the corruption;
    the serve worker then discards the snapshot and restarts the job from
    scratch instead of failing it.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    header = HEADER.size
    if len(blob) <= header:
        raise SchedulerError(f"snapshot {path} too small to poison")
    offset = header + random.Random(seed).randrange(len(blob) - header)
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))
    return offset


# -- feedback scheduling ---------------------------------------------------


class FeedbackScheduler:
    """A :class:`Scheduler` that corrects its estimates from measurements.

    Wraps any base policy (default: the PREMA-style predictive scheduler)
    and maintains one EWMA correction factor per ``(node, service)``:
    :meth:`observe` feeds the measured residency of a completed job
    (dispatch→completion) against the static estimate the plan used, and
    :meth:`dispatch` hands the base policy a view whose estimates are
    scaled by the learned factors.  Used standalone it behaves like its
    base policy until fed; under a :class:`ResiliencePolicy` it closes the
    incremental plan→measure→re-plan loop.
    """

    def __init__(
        self,
        base: Scheduler | None = None,
        *,
        alpha: float = 0.4,
        initial_correction: Mapping[tuple[int, int], float] | None = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SchedulerError(f"alpha must be in (0, 1], got {alpha}")
        self.base: Scheduler = base if base is not None else PredictiveScheduler()
        self.alpha = alpha
        self.name = f"feedback+{self.base.name}"
        self._correction: dict[tuple[int, int], float] = dict(
            initial_correction or {}
        )
        #: How many corrections are not exactly 1.0 (none: nothing to scale).
        self._off = sum(factor != 1.0 for factor in self._correction.values())

    def correction(self, node: int, service: int) -> float:
        return self._correction.get((node, service), 1.0)

    def corrected(self, node: int, service: int, estimate: int) -> int:
        """``estimate`` as this scheduler prices it on farm node ``node``."""
        return max(1, round(estimate * self.correction(node, service)))

    def observe(
        self, node: int, service: int, *, estimated: int, measured: int
    ) -> None:
        """Feed one measured completion back into the correction table."""
        if estimated <= 0 or measured <= 0:
            return
        ratio = measured / estimated
        key = (node, service)
        previous = self._correction.get(key)
        factor = self._correction[key] = (
            ratio
            if previous is None
            else previous + self.alpha * (ratio - previous)
        )
        self._off += (factor != 1.0) - (previous not in (None, 1.0))

    def corrected_view(self, view: FarmView) -> FarmView:
        """``view`` with every estimate scaled by its learned correction
        (keyed by farm-wide node index, so a restricted view corrects
        each surviving node by its own history)."""
        if not self._off and all(est >= 1 for row in view.estimates for est in row):
            return view  # every correction is 1.0: each estimate as it is
        rows = [
            [self.corrected(node, service, est) for service, est in enumerate(row)]
            for node, row in zip(view.nodes, view.estimates)
        ]
        return FarmView(
            view.num_nodes, view.slos, rows, view.available, view.nodes
        )

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        return self.base.dispatch(jobs, self.corrected_view(view))


# -- the resilience policy -------------------------------------------------

#: Speculative duplicates one epoch may dispatch (bounds the wasted work).
MAX_HEDGES_PER_EPOCH = 8


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of a resilient day.

    ``epoch_cycles`` is the re-planning cadence, the heartbeat period, and
    how far past its estimated completion a job on a *suspect* node may
    run before ``hedge`` lets a speculative duplicate go out.
    ``suspect_after_cycles`` / ``dead_after_cycles`` default to one and
    three epochs of stalled progress.  ``mode_switch`` arms MESC-style
    shedding of low-criticality classes when surviving capacity drops (see
    :class:`~repro.qos.config.ModeSwitchPolicy`).
    """

    epoch_cycles: int = 250_000
    suspect_after_cycles: int | None = None
    dead_after_cycles: int | None = None
    hedge: bool = True
    mode_switch: ModeSwitchPolicy | None = None

    def __post_init__(self) -> None:
        if self.epoch_cycles <= 0:
            raise SchedulerError("epoch_cycles must be positive")


@dataclass(frozen=True)
class NodeSummary:
    """One node's end-of-day ledger."""

    node: int
    state: HealthState
    final_cycle: int
    completed: int
    killed_at: int | None = None


@dataclass(frozen=True)
class ResilienceReport:
    """What a resilient day did beyond serving: the failure ledger."""

    epochs: int
    nodes: tuple[NodeSummary, ...]
    migrations: int
    hedges_dispatched: int
    hedges_won: int
    hedges_wasted: int
    shed_jobs: int
    mode_switches: tuple[tuple[int, str], ...]
    capacity_fraction: float

    @property
    def nodes_lost(self) -> int:
        return sum(1 for n in self.nodes if n.state is HealthState.DEAD)

    def format(self) -> str:
        rows = [
            [
                summary.node,
                summary.state.value,
                summary.final_cycle,
                summary.completed,
                summary.killed_at if summary.killed_at is not None else "-",
            ]
            for summary in self.nodes
        ]
        table = format_table(
            ["node", "state", "final cyc", "completed", "killed at"],
            rows,
            title="farm resilience report",
        )
        switches = (
            ", ".join(f"{mode}@{cycle}" for cycle, mode in self.mode_switches)
            or "none"
        )
        table += (
            f"\nepochs: {self.epochs}; nodes lost: {self.nodes_lost}; "
            f"surviving capacity: {100 * self.capacity_fraction:.0f}%"
            f"\nmigrated: {self.migrations}; hedges: "
            f"{self.hedges_dispatched} dispatched / {self.hedges_won} won / "
            f"{self.hedges_wasted} wasted; shed: {self.shed_jobs}; "
            f"mode switches: {switches}"
        )
        return table


#: Rows of :attr:`ResiliencePolicy.flight`, one column per copy handed
#: over and not yet settled.  The first four are a plan's columns (see
#: :meth:`repro.farm.farm.Farm.plan`); then the scheduler's price of the
#: job, its completion by the static estimate, whether it is a hedge copy,
#: and its index in :attr:`ResiliencePolicy.log`.
_JOB, _SERVICE, _NODE, _DISPATCH, _PRICE, _END, _HEDGE, _SEQ = range(8)
#: A plan-answered result row, read off the in-flight table.
_RESULT = np.array([_JOB, _NODE, _SERVICE, _DISPATCH, _DISPATCH, _END])
#: :attr:`ResiliencePolicy.free` of a simulated node: every hand-over to it
#: overlaps, so the backend takes it.
_SIMULATED = np.iinfo(np.int64).max


class ResiliencePolicy:
    """Everything only a resilient day needs, as phases of the serving loop.

    :meth:`~repro.farm.farm.Farm._serve` calls one method per phase, in
    this order every epoch: :meth:`open_epoch`, :meth:`admit` (mode switch,
    shedding, where the plan may land), :meth:`submit_plan` with the
    epoch's plan, :meth:`hedge`, :meth:`measure` (advance under chaos),
    :meth:`settle` (first result wins, heartbeats, migration); and
    :meth:`ledger` once at the end.  The policy owns the state those
    phases share — the epoch clock, the in-flight table, node health, the
    chaos freeze — so a day served without a policy pays for none of it.

    The in-flight table is int64 columns (:attr:`flight`).  A node whose
    hand-overs never overlap is answered from it: a job completes at its
    static end and counts once that is before the node's advance; its
    clock follows the simulated node's pause contract (mid job, the job's
    next instruction boundary; idle with later work, that work's dispatch;
    drained, the last completion).  Any other node is simulated by the
    backend ``nodes`` (:class:`NodeBackend`), which takes a node at its
    first overlap.
    """

    def __init__(
        self,
        farm: "Farm",
        nodes: "NodeBackend",
        config: ResilienceConfig,
        chaos: ChaosPlan | None = None,
    ) -> None:
        self.farm = farm
        self.nodes = nodes
        self.config = config
        self.view = farm.view
        self.bus = farm.bus
        scheduler = farm.scheduler
        self.feedback = scheduler if isinstance(scheduler, FeedbackScheduler) else None
        count = self.view.num_nodes
        self.health = NodeHealth(
            count,
            suspect_after_cycles=config.suspect_after_cycles or config.epoch_cycles,
            dead_after_cycles=config.dead_after_cycles or 3 * config.epoch_cycles,
            bus=self.bus,
        )
        self.kills = chaos.node_kills() if chaos is not None else {}
        self.frozen: set[int] = set()  # killed, not (yet) healed: never advances
        self.healed: set[int] = set()
        #: Per-node throughput proxy: inverse mean service estimate.
        self.weights = [
            len(row) / sum(row) if sum(row) else 0.0 for row in self.view.estimates
        ]
        self.now = self.epoch_end = 0
        #: ``static[node, service]``: the cycles of one job; ``prices``: as
        #: :meth:`estimate` prices it, repriced where :meth:`settle` moves a
        #: correction; ``_quiet``: the pairs a ratio of 1.0 leaves as they
        #: are (fed a completion before, and corrected by exactly 1.0).
        self.static = np.array(self.view.estimates, np.int64).reshape(count, -1)
        self.prices = self.static.copy()
        self._quiet = np.zeros(self.static.shape, bool)
        if self.feedback is not None:
            for node, service in np.ndindex(self.static.shape):
                self._reprice(node, service)
        #: The copies handed over and not settled, in submit order per node.
        self.flight = np.empty((8, 0), np.int64)
        self.busy_est = np.zeros(count, np.int64)
        #: Per node: the static end of its last hand-over (0 before any),
        #: the cycle it was last advanced to (-1: never, or simulated) and
        #: its clock, for the nodes the policy answers.
        self.free = np.array(
            [_SIMULATED if nodes.simulates(node) else 0 for node in range(count)], np.int64
        )
        self.reach = np.full(count, -1, np.int64)
        self.clocks = [0] * count
        self._advanced: list[int] = []  # this epoch's plan-answered advances
        self._cums: dict[tuple[int, int], Sequence[int]] = {}
        self.hedged: set[int] = set()
        self.won: set[int] = set()  # hedged jobs with a first result
        self.shed: list[Job] = []
        #: Every hand-over, in submit order (:data:`_SEQ` indexes it).
        self.log: list[Dispatch] = []
        self.mode = "normal"
        self.mode_switches: list[tuple[int, str]] = []
        #: What the ledger counts is what the bus was told, by event kind.
        self.told: Counter[EventKind] = Counter()

    def estimate(self, node: int, service: int) -> int:
        """Cycles of one job as the scheduler currently prices it: the
        static estimate times the learned correction."""
        return int(self.prices[node, service])

    def _reprice(self, node: int, service: int) -> None:
        assert self.feedback is not None
        static = int(self.static[node, service])
        self.prices[node, service] = self.feedback.corrected(node, service, static)

    def clock(self, node: int) -> int:
        """The cycle ``node`` has reached."""
        return self.nodes.clock(node) if self.nodes.simulates(node) else self.clocks[node]

    def capacity_fraction(self) -> float:
        total = sum(self.weights)
        alive = sum(self.weights[node] for node in self.health.alive_nodes())
        return alive / total if total else 0.0

    def _emit(self, kind: EventKind, job: Job, **data: object) -> None:
        self.told[kind] += 1
        self.bus.emit(
            kind, cycle=self.now, task_id=job.service, job_id=job.job_id, **data
        )

    def open_epoch(self, idle_until: int | None) -> int:
        """Start the next epoch; returns the cycle it ends at.

        ``idle_until`` is the next arrival when nothing waits to be
        re-planned: with nothing in flight either, the epoch grid jumps
        ahead to the epoch that arrival falls in.
        """
        epoch = self.config.epoch_cycles
        self.now = self.epoch_end
        self.epoch_end = self.now + epoch
        if idle_until is not None and idle_until >= self.epoch_end:
            if not self.flight.shape[1]:
                self.epoch_end = (idle_until // epoch + 1) * epoch
        return self.epoch_end

    # -- mode: shed low-criticality work under capacity loss (MESC) ---------

    def admit(
        self, batch: list[Job], unserved: int
    ) -> tuple[list[Job], list[int], list[int]]:
        """The jobs of ``batch`` to plan this epoch (the rest are shed), the
        healthy nodes they may land on, and when each can take new work."""
        if not self.health.alive_nodes():
            raise SchedulerError(
                f"farm lost all {self.view.num_nodes} nodes with {unserved} "
                f"jobs unserved"
            )
        switch = self.config.mode_switch
        if switch is not None:
            fraction = self.capacity_fraction()
            degraded = fraction < switch.capacity_threshold
            if (self.mode == "normal" and degraded) or (
                self.mode == "degraded" and switch.restore and not degraded
            ):
                self.mode = "degraded" if degraded else "normal"
                self.mode_switches.append((self.now, self.mode))
                self.bus.emit(
                    EventKind.MODE_SWITCH,
                    cycle=self.now, mode=self.mode, capacity=fraction,
                )
            if self.mode == "degraded":
                ranks = [slo.rank for slo in self.view.slos]
                doomed = [j for j in batch if ranks[j.service] >= switch.shed_min_rank]
                batch = [j for j in batch if ranks[j.service] < switch.shed_min_rank]
                self.shed.extend(doomed)
                for job in doomed:
                    self._emit(
                        EventKind.JOB_DEGRADED, job,
                        action="mode_shed", tenant_id=job.tenant_id,
                    )
        healthy = self.health.healthy_nodes()
        return batch, healthy, self._free_at(healthy)

    def _free_at(self, nodes: list[int]) -> list[int]:
        """When each of ``nodes`` can take new work."""
        busy = self.busy_est.tolist()
        return [max(self.now, busy[node], self.clock(node)) for node in nodes]

    # -- submit: enter every hand-over in the in-flight table ----------------

    def submit_plan(self, jobs: list[Job], columns: Int64s) -> None:
        """Hand an epoch's plan over in submit order, ``(dispatch_cycle,
        job_id)``: ``jobs`` and ``columns``, its ``(4, n)`` plan columns,
        in plan order.  Each enters :attr:`log` as a :class:`Dispatch`
        naming its farm-wide node."""
        ids, _, _, cycles = columns
        order = np.lexsort((ids, cycles))
        ordered = columns[:, order]
        fields = zip(map(jobs.__getitem__, order.tolist()), *ordered[2:].tolist())
        self.log.extend(map(tuple.__new__, repeat(Dispatch), fields))
        self._hand_over(ordered, False)

    def submit(self, dispatch: Dispatch, is_hedge: bool = False) -> None:
        """Hand one copy of a job over."""
        job, node, cycle = dispatch
        self.log.append(dispatch)
        columns = np.array([[job.job_id], [job.service], [node], [cycle]], np.int64)
        self._hand_over(columns, is_hedge)

    def _hand_over(self, hand_overs: Int64s, hedge: bool) -> None:
        """Enter the last hand-overs of :attr:`log`, given as their plan
        columns, in the in-flight table; those on simulated nodes go on to
        the backend, which first takes each node they make overlap."""
        count = hand_overs.shape[1]
        _, services, nodes, cycles = hand_overs
        table = np.empty((8, count), np.int64)
        table[:4] = hand_overs
        pairs = nodes * self.static.shape[1] + services
        table[_PRICE] = self.prices.take(pairs)
        table[_END] = cycles + self.static.take(pairs)
        table[_HEDGE] = hedge
        table[_SEQ] = np.arange(len(self.log) - count, len(self.log))
        np.maximum.at(self.busy_est, nodes, cycles + table[_PRICE])
        table = table[:, np.argsort(nodes, kind="stable")]  # node by node
        overlap = overlapping(table[:4], table[_END], self.free)
        handed = self._take(table, overlap) if overlap.any() else overlap
        np.maximum.at(self.free, table[_NODE], table[_END])  # a plan-answered node's last
        self.flight = np.concatenate((self.flight, table), axis=1)
        if handed.any():
            self.nodes.submit(table[:4, handed])

    def _take(self, table: Int64s, overlap: npt.NDArray[np.bool_]) -> npt.NDArray[np.bool_]:
        """Hand each plan-answered node that overlaps in ``table`` (new
        hand-overs, node by node) to the backend, which replays its
        hand-overs so far and those of ``table`` before its first overlap;
        which rows of ``table`` the backend is still to be handed."""
        nodes = table[_NODE]
        replayed = np.zeros(len(nodes), bool)
        earlier = self.log[: len(self.log) - len(nodes)]
        for node in np.unique(nodes[overlap]).tolist():
            if self.free[node] == _SIMULATED:
                continue
            here = np.flatnonzero(nodes == node)
            before = here[: int(overlap[here].argmax())]
            replayed[before] = True
            past = [(d.job.job_id, d.job.service, node, d.dispatch_cycle) for d in earlier if d.node == node]
            mine = np.concatenate((np.array(past, np.int64).reshape(-1, 4).T, table[:4, before]), axis=1)
            harvested = len(past) - int(np.count_nonzero(self.flight[_NODE] == node))
            until = int(self.reach[node])
            self.nodes.take(node, mine, harvested, None if until < 0 else until)
            self.free[node], self.reach[node] = _SIMULATED, -1
        return (self.free[nodes] == _SIMULATED) & ~replayed

    # -- hedge: duplicate overdue work held by suspect nodes ----------------

    def hedge(self) -> None:
        healthy = self.health.healthy_nodes()
        alive = self.health.alive_nodes()
        if not self.config.hedge or not healthy or len(healthy) == len(alive):
            return  # no hedging, nowhere to hedge to, or no node suspect
        hedges_left = MAX_HEDGES_PER_EPOCH
        for node in sorted(set(alive) - set(healthy)):
            mine = self.flight[:, self.flight[_NODE] == node]
            mine = mine[:, np.argsort(mine[_SERVICE], kind="stable")]  # slot, FIFO
            for job_id, cycle, price, seq in mine[[_JOB, _DISPATCH, _PRICE, _SEQ]].T.tolist():
                if hedges_left <= 0:
                    return
                if self.now < cycle + price + self.config.epoch_cycles or job_id in self.hedged:
                    continue  # not overdue, or already hedged (two copies)
                job = self.log[seq].job
                free_at = dict(zip(healthy, self._free_at(healthy)))
                target = min(
                    healthy,
                    key=lambda n: (free_at[n] + self.estimate(n, job.service), n),
                )
                self.submit(Dispatch(job, target, free_at[target]), is_hedge=True)
                self.hedged.add(job_id)
                hedges_left -= 1
                self._emit(
                    EventKind.HEDGE_DISPATCH, job, from_node=node, to_node=target
                )

    # -- measure: one epoch of simulated time per surviving node ------------

    def measure(self) -> None:
        """Advance every live node to the end of the epoch — except where
        the chaos plan says it died (or hung) on the way."""
        for node in self.health.alive_nodes():
            kill = self.kills.get(node)
            if kill is not None and node not in self.healed:
                if kill.heal_cycle is not None and self.epoch_end > kill.heal_cycle:
                    # The hang ends inside this epoch: the node did nothing
                    # while frozen, so its clock jumps to the heal point.
                    self.healed.add(node)
                    self.frozen.discard(node)
                    self.nodes.hang(node, kill.heal_cycle)
                elif node in self.frozen:
                    continue
                elif kill.at_cycle < self.epoch_end:
                    # Run up to the kill point, then freeze.
                    if self.clock(node) < kill.at_cycle:
                        self._advance(kill.at_cycle, node)
                    self.frozen.add(node)
                    continue
            self._advance(self.epoch_end, node)

    def _advance(self, until_cycle: int, node: int) -> None:
        if self.nodes.simulates(node):
            self.nodes.advance(until_cycle, node)
        else:  # settled, and its clock read, in settle()
            self.reach[node] = until_cycle
            self._advanced.append(node)

    # -- harvest: first result wins; then beat, and migrate off the dead ----

    def settle(
        self, fresh: Int64s | Sequence[NodeJobResult], stranded: list[Job]
    ) -> Int64s:
        """The completions that count, as ``(n, 6)`` result rows: the
        plan-answered copies that complete before their node's advance,
        and the backend's ``fresh`` rows, each of which must be the oldest
        copy on its slot; per job, the first (alive nodes in order, by
        slot, FIFO).

        Node by node, each node's heartbeat follows its completions; a node
        the beat declares dead has its unfinished jobs appended to
        ``stranded``, for the next epoch's plan.
        """
        self.now = self.epoch_end
        alive = self.health.alive_nodes()
        flight = self.flight
        done = flight[_END] < self.reach[flight[_NODE]]
        places = np.flatnonzero(done)
        rows = flight[_RESULT][:, places].T
        if len(fresh):
            fresh = np.asarray(fresh, np.int64).reshape(-1, len(_RESULT))
            fresh = fresh[np.isin(fresh[:, 1], alive)]
            fresh = fresh[np.argsort(fresh[:, 1], kind="stable")]  # node by node
            oldest = self._oldest(fresh)
            done[oldest] = True
            rows = np.concatenate((rows, fresh))
            places = np.concatenate((places, oldest))
        if self.feedback is not None and len(rows):
            self._learn(rows)
        events: dict[int, list[tuple[EventKind, Job, dict[str, object]]]] = {}
        ids = rows[:, 0].tolist() if self.hedged else []
        hedged = np.array([i for i, job_id in enumerate(ids) if job_id in self.hedged], np.intp)
        if len(hedged):
            first = np.ones(len(rows), bool)
            order = np.lexsort((places[hedged], rows[hedged, 2], rows[hedged, 1]))
            for index in hedged[order].tolist():
                job_id, node = rows[index, :2].tolist()
                place = places[index]
                job = self.log[flight[_SEQ, place]].job
                if job_id in self.won:
                    first[index] = False
                    events.setdefault(node, []).append(
                        (EventKind.HEDGE_WASTED, job, {"node": node})
                    )
                    continue
                self.won.add(job_id)
                source = "hedge" if flight[_HEDGE, place] else "primary"
                events.setdefault(node, []).append(
                    (EventKind.HEDGE_WIN, job, {"node": node, "source": source})
                )
            rows = rows[first]
        self.flight = flight[:, ~done]
        held = self._read_clocks()
        for node in alive:
            for kind, job, data in events.get(node, ()):
                self._emit(kind, job, **data)
            state = self.health.beat(
                node, clock=self.clock(node), busy=node in held, now=self.now
            )
            if state is HealthState.DEAD:
                self._migrate(node, stranded)
        return rows

    def _read_clocks(self) -> dict[int, int]:
        """Where in :attr:`flight` each node's first copy left is; and the
        clock of each plan-answered node advanced this epoch, read off it."""
        flight = self.flight
        nodes = flight[_NODE].tolist()
        held = dict(zip(reversed(nodes), range(len(nodes) - 1, -1, -1)))
        reach, free = self.reach.tolist(), self.free.tolist()
        for node in self._advanced:
            until = reach[node]
            if node not in held:  # drained (or never handed a job)
                self.clocks[node] = free[node]
                continue
            start, service = flight[[_DISPATCH, _SERVICE], held[node]].tolist()
            if start <= until:  # mid-job: its next instruction boundary
                cum = self._cum(node, service)
                self.clocks[node] = start + cum[bisect_left(cum, until - start)]
            elif self.clocks[node] < until:  # idle: skip to the next job
                self.clocks[node] = start
        self._advanced = []
        return held

    def _cum(self, node: int, service: int) -> Sequence[int]:
        """The instruction boundaries of one ``service`` job on ``node``."""
        cum = self._cums.get((node, service))
        if cum is None:
            farm = self.farm
            network = compiled_for_services(farm.node_configs[node], farm.services)[service]
            cum = self._cums[node, service] = network.meta(farm.vi_mode).cum
        return cum

    def _oldest(self, fresh: Int64s) -> npt.NDArray[np.intp]:
        """Where in :attr:`flight` each of the backend's completions
        ``fresh`` (node by node, each slot FIFO) is: its slot's oldest
        copy that no earlier row of ``fresh`` took."""
        flight = self.flight
        slots: dict[tuple[int, int], deque[int]] = {}
        for place, slot in enumerate(zip(flight[_NODE].tolist(), flight[_SERVICE].tolist())):
            slots.setdefault(slot, deque()).append(place)
        places = []
        for job_id, node, service in fresh[:, :3].tolist():
            held = slots.get((node, service))
            if not held:
                raise SchedulerError(
                    f"node {node} slot {service} completed job {job_id}, which "
                    f"it does not hold"
                )
            places.append(held.popleft())
            if flight[_JOB, places[-1]] != job_id:
                raise SchedulerError(
                    f"node {node} slot {service} completed job {job_id}, not the "
                    f"oldest copy on it (job {flight[_JOB, places[-1]]})"
                )
        return np.array(places, np.intp)

    def _learn(self, rows: Int64s) -> None:
        """Feed the completions ``rows`` to the scheduler's corrections as
        :meth:`FeedbackScheduler.observe` row by row would.  A ratio of
        exactly 1.0 leaves a quiet pair as it is, so only the rows of a
        pair that is not quiet or has another ratio are fed, in order."""
        feedback = self.feedback
        assert feedback is not None
        nodes, services = rows[:, 1], rows[:, 2]
        width = self.static.shape[1]
        pairs = nodes * width + services
        estimated = self.static.take(pairs)
        measured = rows[:, 5] - rows[:, 3]
        moved = (measured != estimated) | ~self._quiet.take(pairs)
        if not moved.any():
            return
        fed = np.isin(pairs, pairs[moved])
        columns = (nodes, services, estimated, measured)
        for node, service, cycles, took in zip(*(c[fed].tolist() for c in columns)):
            feedback.observe(node, service, estimated=cycles, measured=took)
        for pair in np.unique(pairs[fed]).tolist():
            node, service = divmod(pair, width)
            self._reprice(node, service)
            self._quiet[node, service] = feedback.correction(node, service) == 1.0

    def _migrate(self, node: int, stranded: list[Job]) -> None:
        flight = self.flight
        mine = flight[_NODE] == node
        self.flight = flight[:, ~mine]
        lost = flight[:, mine]
        lost = lost[:, np.argsort(lost[_SERVICE], kind="stable")]  # slot, FIFO
        copies = Counter(flight[_JOB].tolist())
        for job_id, seq in lost[[_JOB, _SEQ]].T.tolist():
            copies[job_id] -= 1
            if job_id in self.won or copies[job_id] > 0:
                continue  # a hedge copy already covers (or covered) it
            job = self.log[seq].job
            stranded.append(job)
            self._emit(EventKind.JOB_MIGRATED, job, from_node=node)

    # -- the end-of-day ledger ----------------------------------------------

    def ledger(self, epochs: int, results: Int64s) -> ResilienceReport:
        # Hedge copies still in flight when the day completes are abandoned
        # redundant work: count them as wasted.
        abandoned = int(np.count_nonzero(self.flight[_HEDGE]))
        completed = np.bincount(results[:, 1], minlength=self.view.num_nodes).tolist()
        return ResilienceReport(
            epochs=epochs,
            nodes=tuple(
                NodeSummary(
                    node=node,
                    state=self.health.state(node),
                    final_cycle=self.clock(node),
                    completed=completed[node],
                    killed_at=self.kills[node].at_cycle if node in self.kills else None,
                )
                for node in self.view.nodes
            ),
            migrations=self.told[EventKind.JOB_MIGRATED],
            hedges_dispatched=self.told[EventKind.HEDGE_DISPATCH],
            hedges_won=self.told[EventKind.HEDGE_WIN],
            hedges_wasted=self.told[EventKind.HEDGE_WASTED] + abandoned,
            shed_jobs=len(self.shed),
            mode_switches=tuple(self.mode_switches),
            capacity_fraction=self.capacity_fraction(),
        )


# -- chaos campaigns -------------------------------------------------------


@dataclass(frozen=True)
class ChaosTrial:
    """One chaos plan's run, checked against the golden invariants."""

    plan: ChaosPlan
    result: "ServeResult"
    lost_jobs: int
    duplicated_jobs: int
    gold_attainment: float
    gold_floor: float
    invariants_ok: bool


@dataclass(frozen=True)
class ChaosCampaignReport:
    """A golden run plus every chaos trial, with the invariant table."""

    golden: "ServeResult"
    trials: tuple[ChaosTrial, ...]
    gold_class: str
    floor: float

    @property
    def all_ok(self) -> bool:
        return all(trial.invariants_ok for trial in self.trials)

    def format(self) -> str:
        golden_gold = self.golden.report.by_class(self.gold_class).attainment
        rows = [
            [
                "golden",
                self.golden.report.total_jobs,
                0,
                0,
                0,
                0,
                0,
                f"{100 * golden_gold:.2f}%",
                f"{100 * self.golden.report.overall_attainment:.2f}%",
                "-",
            ]
        ]
        for trial in self.trials:
            report = trial.result.report
            resilience = trial.result.resilience
            rows.append(
                [
                    f"chaos(seed={trial.plan.seed})",
                    report.total_jobs,
                    resilience.nodes_lost,
                    trial.lost_jobs,
                    trial.duplicated_jobs,
                    resilience.migrations,
                    resilience.hedges_dispatched,
                    f"{100 * trial.gold_attainment:.2f}%",
                    f"{100 * report.overall_attainment:.2f}%",
                    "ok" if trial.invariants_ok else "VIOLATED",
                ]
            )
        return format_table(
            [
                "run", "jobs", "nodes lost", "lost", "dup", "migrated",
                "hedged", f"{self.gold_class} att", "overall att", "invariants",
            ],
            rows,
            title=(
                f"chaos campaign — {self.gold_class} floor = "
                f"{100 * self.floor:.0f}% of golden"
            ),
        )


def run_chaos_campaign(
    farm_factory: Callable[[], "Farm"],
    jobs: Sequence[Job],
    plans: Sequence[ChaosPlan],
    *,
    resilience: ResilienceConfig | None = None,
    gold_class: str = "gold",
    floor: float = 0.9,
) -> ChaosCampaignReport:
    """Run one golden day and every chaos plan; check the hard invariants.

    ``farm_factory`` must build a *fresh* farm per run (scheduler state —
    learned corrections — must not leak between trials).  Invariants per
    trial: zero lost jobs (every arrival measured or shed), zero
    duplicated outcomes, and gold-class attainment at or above ``floor``
    times the golden run's.  Violations are reported, not raised — the
    caller (benchmark / CI) decides what gates.
    """
    golden = farm_factory().serve_resilient(jobs, resilience=resilience)
    golden_gold = golden.report.by_class(gold_class).attainment
    all_ids = sorted(job.job_id for job in jobs)
    trials = []
    for plan in plans:
        result = farm_factory().serve_resilient(
            jobs, resilience=resilience, chaos=plan
        )
        seen = sorted(
            [outcome.job_id for outcome in result.outcomes]
            + [job.job_id for job in result.shed]
        )
        lost = len(set(all_ids) - set(seen))
        duplicated = len(seen) - len(set(seen))
        gold_attainment = result.report.by_class(gold_class).attainment
        gold_floor = floor * golden_gold
        trials.append(
            ChaosTrial(
                plan=plan,
                result=result,
                lost_jobs=lost,
                duplicated_jobs=duplicated,
                gold_attainment=gold_attainment,
                gold_floor=gold_floor,
                invariants_ok=(
                    lost == 0
                    and duplicated == 0
                    and seen == all_ids
                    and gold_attainment >= gold_floor
                ),
            )
        )
    return ChaosCampaignReport(
        golden=golden, trials=tuple(trials), gold_class=gold_class, floor=floor
    )


__all__ = [
    "ChaosAction",
    "ChaosCampaignReport",
    "ChaosPlan",
    "ChaosTrial",
    "FeedbackScheduler",
    "HealthState",
    "MAX_HEDGES_PER_EPOCH",
    "NodeHealth",
    "NodeSummary",
    "ResilienceConfig",
    "ResiliencePolicy",
    "ResilienceReport",
    "poison_snapshot_file",
    "run_chaos_campaign",
    # Re-exported for callers that look them up here (the perf harness
    # wraps these attributes); the serving loop in repro.farm.farm calls
    # the originals, not these bindings.
    "build_node_system",
    "build_report",
    "join_outcomes",
]
