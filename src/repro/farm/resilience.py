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
  low-criticality classes when surviving capacity drops;
* :class:`ChaosPlan` — a seeded, deterministic fault plan at farm level:
  kill (or transiently hang) a node at a simulated cycle;
* :func:`run_chaos_campaign` — replays one day under a set of chaos plans
  against the no-fault golden run and checks the hard invariants: zero
  lost jobs, zero duplicated outcomes, a gold-class attainment floor.
"""

from __future__ import annotations

import enum
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence, TYPE_CHECKING

from repro.analysis.tables import format_table
from repro.container import HEADER
from repro.errors import SchedulerError
from repro.farm.metrics import build_report, join_outcomes
from repro.farm.node import NodeJobResult, build_node_system
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
        self._last_clock = [-1] * num_nodes
        self._last_progress = [0] * num_nodes
        #: ``(cycle, node, state)`` transition log, in observation order.
        self.transitions: list[tuple[int, int, HealthState]] = []

    def state(self, node: int) -> HealthState:
        return self._state[node]

    def alive(self, node: int) -> bool:
        return self._state[node] is not HealthState.DEAD

    def healthy_nodes(self) -> list[int]:
        return [
            node
            for node in range(self.num_nodes)
            if self._state[node] is HealthState.HEALTHY
        ]

    def alive_nodes(self) -> list[int]:
        return [node for node in range(self.num_nodes) if self.alive(node)]

    def _transition(
        self, node: int, state: HealthState, cycle: int, **data: object
    ) -> None:
        self._state[node] = state
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
        self._correction[key] = (
            ratio
            if previous is None
            else previous + self.alpha * (ratio - previous)
        )

    def corrected_view(self, view: FarmView) -> FarmView:
        """``view`` with every estimate scaled by its learned correction
        (keyed by farm-wide node index, so a restricted view corrects
        each surviving node by its own history)."""
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


class _InFlight(NamedTuple):
    """One submitted copy of a job on one node (a tuple: one is made per
    hand-over, and nothing changes it)."""

    job: Job
    dispatch_cycle: int
    estimate: int
    is_hedge: bool


class ResiliencePolicy:
    """Everything only a resilient day needs, as phases of the serving loop.

    :meth:`~repro.farm.farm.Farm._serve` calls one method per phase, in
    this order every epoch: :meth:`open_epoch`, :meth:`admit` (mode switch,
    shedding, where the plan may land), :meth:`submit` per hand-over,
    :meth:`hedge`, :meth:`measure` (advance under chaos), :meth:`settle`
    (first result wins, heartbeats, migration); and :meth:`ledger` once at
    the end.  The policy owns the state those phases share — the epoch
    clock, the in-flight copies table, node health, the chaos freeze — so a
    day served without a policy pays for none of it.
    """

    def __init__(
        self,
        farm: "Farm",
        nodes: "NodeBackend",
        config: ResilienceConfig,
        chaos: ChaosPlan | None = None,
    ) -> None:
        self.nodes = nodes
        self.config = config
        self.view = farm.view
        self.bus = farm.bus
        scheduler = farm.scheduler
        self.feedback = scheduler if isinstance(scheduler, FeedbackScheduler) else None
        self.health = NodeHealth(
            self.view.num_nodes,
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
        #: ``inflight[node][service]``: the copies handed over, FIFO.
        self.inflight: list[list[deque[_InFlight]]] = [
            [deque() for _ in self.view.slos] for _ in self.view.nodes
        ]
        self.busy_est = [0] * self.view.num_nodes
        #: ``(node, service)`` -> :meth:`estimate`, filled on first use and
        #: emptied where the corrections move (:meth:`settle`).
        self._prices: dict[tuple[int, int], int] = {}
        self.copies: dict[int, int] = {}  # live copies per job id
        self.done: set[int] = set()
        self.hedged: set[int] = set()
        self.shed: list[Job] = []
        self.log: list[Dispatch] = []
        self.mode = "normal"
        self.mode_switches: list[tuple[int, str]] = []
        #: What the ledger counts is what the bus was told, by event kind.
        self.told: Counter[EventKind] = Counter()

    def estimate(self, node: int, service: int) -> int:
        """Cycles of one job as the scheduler currently prices it: the
        static estimate times the learned correction.

        Priced once per ``(node, service)`` per epoch: a correction moves
        only in :meth:`settle`, which empties the table first."""
        key = (node, service)
        price = self._prices.get(key)
        if price is None:
            price = self.view.estimate(node, service)
            if self.feedback is not None:
                price = self.feedback.corrected(node, service, price)
            self._prices[key] = price
        return price

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
            if not any(chain.from_iterable(self.inflight)):
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
        return batch, healthy, [self._free_at(node) for node in healthy]

    def _free_at(self, node: int) -> int:
        return max(self.now, self.busy_est[node], self.nodes.clock(node))

    # -- submit: enter every hand-over in the copies table -------------------

    def submit(self, dispatch: Dispatch, is_hedge: bool = False) -> None:
        job, node, cycle = dispatch
        service, job_id = job.service, job.job_id
        estimate = self.estimate(node, service)
        self.nodes.submit(dispatch)
        self.inflight[node][service].append(
            tuple.__new__(_InFlight, (job, cycle, estimate, is_hedge))
        )
        self.copies[job_id] = self.copies.get(job_id, 0) + 1
        self.busy_est[node] = max(self.busy_est[node], cycle + estimate)
        self.log.append(dispatch)

    # -- hedge: duplicate overdue work held by suspect nodes ----------------

    def hedge(self) -> None:
        healthy = self.health.healthy_nodes()
        if not self.config.hedge or not healthy:
            return
        hedges_left = MAX_HEDGES_PER_EPOCH
        for node in self.view.nodes:
            if self.health.state(node) is not HealthState.SUSPECT:
                continue
            for entry in chain.from_iterable(self.inflight[node]):
                if hedges_left <= 0:
                    return
                job = entry.job
                grace = entry.estimate + self.config.epoch_cycles
                if (
                    self.now < entry.dispatch_cycle + grace
                    or job.job_id in self.hedged
                    or job.job_id in self.done
                    or self.copies[job.job_id] > 1
                ):
                    continue
                target = min(
                    healthy,
                    key=lambda n: (self._free_at(n) + self.estimate(n, job.service), n),
                )
                copy = Dispatch(job, target, self._free_at(target))
                self.submit(copy, is_hedge=True)
                self.hedged.add(job.job_id)
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
                    if self.nodes.clock(node) < kill.at_cycle:
                        self.nodes.advance(kill.at_cycle, node)
                    self.frozen.add(node)
                    continue
            self.nodes.advance(self.epoch_end, node)

    # -- harvest: first result wins; then beat, and migrate off the dead ----

    def settle(
        self, fresh: list[NodeJobResult], stranded: list[Job]
    ) -> list[NodeJobResult]:
        """The completions of ``fresh`` that count: per job, the first.

        Node by node, each node's heartbeat follows its completions; a node
        the beat declares dead has its unfinished jobs appended to
        ``stranded``, for the next epoch's plan.
        """
        self.now = self.epoch_end
        self._prices.clear()  # the first results below move the corrections
        by_node: dict[int, list[NodeJobResult]] = {}
        for result in fresh:
            by_node.setdefault(result.node, []).append(result)
        winners: list[NodeJobResult] = []
        for node in self.health.alive_nodes():
            winners += [r for r in by_node.get(node, ()) if self._first_result(r)]
            state = self.health.beat(
                node,
                clock=self.nodes.clock(node),
                busy=any(self.inflight[node]),
                now=self.now,
            )
            if state is HealthState.DEAD:
                self._migrate(node, stranded)
        return winners

    def _first_result(self, result: NodeJobResult) -> bool:
        node, service, job_id = result.node, result.service, result.job_id
        entry = self.inflight[node][service].popleft()
        if entry.job.job_id != job_id:
            raise SchedulerError(
                f"node {node} slot {service} completed job {job_id}, not the "
                f"oldest copy on it (job {entry.job.job_id})"
            )
        self.copies[job_id] -= 1
        if self.feedback is not None:
            self.feedback.observe(
                node,
                service,
                estimated=self.view.estimate(node, service),
                measured=result.complete_cycle - result.dispatch_cycle,
            )
        if job_id in self.done:
            self._emit(EventKind.HEDGE_WASTED, entry.job, node=node)
            return False
        self.done.add(job_id)
        if job_id in self.hedged:
            source = "hedge" if entry.is_hedge else "primary"
            self._emit(EventKind.HEDGE_WIN, entry.job, node=node, source=source)
        return True

    def _migrate(self, node: int, stranded: list[Job]) -> None:
        for queue in self.inflight[node]:
            while queue:
                job = queue.popleft().job
                self.copies[job.job_id] -= 1
                if job.job_id in self.done or self.copies[job.job_id] > 0:
                    continue  # a hedge copy already covers (or covered) it
                stranded.append(job)
                self._emit(EventKind.JOB_MIGRATED, job, from_node=node)

    # -- the end-of-day ledger ----------------------------------------------

    def ledger(self, epochs: int, results: Sequence[NodeJobResult]) -> ResilienceReport:
        # Hedge copies still in flight when the day completes are abandoned
        # redundant work: count them as wasted.
        copies = chain.from_iterable(chain.from_iterable(self.inflight))
        abandoned = sum(1 for entry in copies if entry.is_hedge)
        completed = Counter(result.node for result in results)
        return ResilienceReport(
            epochs=epochs,
            nodes=tuple(
                NodeSummary(
                    node=node,
                    state=self.health.state(node),
                    final_cycle=self.nodes.clock(node),
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
