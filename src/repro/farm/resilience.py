"""Farm resilience: health-monitored nodes, feedback re-planning, chaos.

The plain :meth:`~repro.farm.farm.Farm.serve` pipeline plans a whole day
up front and assumes every node survives it — one node lost mid-day kills
the run.  This module makes the farm survive exactly the interruptions
INCA's single accelerator survives, one level up:

* :class:`NodeHealth` — a per-node heartbeat state machine
  (``HEALTHY → SUSPECT → DEAD``) fed by measured progress each epoch and,
  optionally, by classified worker deaths from the serving gateway's
  journal (:func:`repro.serve.gateway.classify_exit`);
* :class:`FeedbackScheduler` — wraps any base
  :class:`~repro.farm.scheduler.Scheduler` with per-``(node, service)``
  EWMA corrections learned from measured completions, closing the
  plan→measure→re-plan loop;
* :func:`serve_resilient` — an incremental serving loop in fixed-size
  epochs: plan the epoch's arrivals on the *healthy* nodes, measure one
  epoch of simulated time per node, harvest completions (feeding the
  corrections and the heartbeats), then re-plan.  Jobs stranded on a dead
  node are migrated (re-planned from the death point onward — no time
  travel, exactly-once outcomes); overdue jobs on a *suspect* node are
  hedged (speculatively duplicated with first-result-wins dedup); and a
  MESC-style :class:`~repro.qos.config.ModeSwitchPolicy` sheds
  low-criticality classes when surviving capacity drops;
* :class:`ChaosPlan` — a seeded, deterministic fault plan at farm level:
  kill (or transiently hang) a node at a simulated cycle, SIGKILL a
  measure worker process, or poison a journaled snapshot;
* :func:`run_chaos_campaign` — replays one day under a set of chaos plans
  against the no-fault golden run and checks the hard invariants: zero
  lost jobs, zero duplicated outcomes, a gold-class attainment floor.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence, TYPE_CHECKING

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
    from repro.farm.farm import Farm


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
    ``HEALTHY``; death is final.  :meth:`note_worker_death` feeds
    *classified* deaths (a gateway's ``worker_death`` journal events or a
    ``classify_exit`` string) and declares the node dead immediately — a
    SIGKILL is a better signal than a missed heartbeat.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        suspect_after_cycles: int,
        dead_after_cycles: int,
        bus: EventBus | None = None,
    ):
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

    def _transition(self, node: int, state: HealthState, cycle: int, **data) -> None:
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

    def note_worker_death(self, node: int, *, cycle: int, reason: str) -> None:
        """A classified worker death (gateway journal) — immediately DEAD."""
        if not 0 <= node < self.num_nodes:
            raise SchedulerError(f"no node {node} in a {self.num_nodes}-node farm")
        if self._state[node] is HealthState.DEAD:
            return
        self._transition(
            node, HealthState.DEAD, cycle, reason=f"worker_death: {reason}"
        )


# -- chaos plans -----------------------------------------------------------

KILL_NODE = "kill_node"
KILL_WORKER = "kill_worker"
POISON_SNAPSHOT = "poison_snapshot"

_CHAOS_KINDS = (KILL_NODE, KILL_WORKER, POISON_SNAPSHOT)

#: Environment variable naming the armed worker-kill directory (see
#: :meth:`ChaosPlan.arm_worker_kills` / ``repro.farm.node``).
CHAOS_DIR_ENV = "REPRO_FARM_CHAOS_DIR"


@dataclass(frozen=True)
class ChaosAction:
    """One planned fault.

    * ``kill_node`` — the node's host "dies" at simulated cycle
      ``at_cycle``: its simulation stops advancing and its unfinished work
      must be hedged/migrated.  A ``heal_cycle`` turns the death into a
      transient hang (a GC pause, a network partition): the node resumes
      at that cycle, having done no work in between.
    * ``kill_worker`` — SIGKILL the measure-phase worker *process* of this
      node ``count`` times (armed via :meth:`ChaosPlan.arm_worker_kills`;
      exercises the farm's retry budget and the gateway's recovery).
    * ``poison_snapshot`` — corrupt this node's journaled snapshot file
      (see :func:`poison_snapshot_file`) so a resuming worker must detect
      the corruption and fall back to a fresh start.
    """

    kind: str
    node: int
    at_cycle: int = 0
    heal_cycle: int | None = None
    count: int = 1

    def __post_init__(self):
        if self.kind not in _CHAOS_KINDS:
            raise SchedulerError(
                f"chaos kind must be one of {_CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.node < 0:
            raise SchedulerError(f"node must be >= 0, got {self.node}")
        if self.at_cycle < 0:
            raise SchedulerError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.heal_cycle is not None:
            if self.kind != KILL_NODE:
                raise SchedulerError("heal_cycle only applies to kill_node")
            if self.heal_cycle <= self.at_cycle:
                raise SchedulerError("heal_cycle must be after at_cycle")
        if self.count < 1:
            raise SchedulerError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic set of planned faults for one serving run."""

    actions: tuple[ChaosAction, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        kills = [a.node for a in self.actions if a.kind == KILL_NODE]
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
        return {a.node: a for a in self.actions if a.kind == KILL_NODE}

    def worker_kills(self) -> dict[int, int]:
        kills: dict[int, int] = {}
        for action in self.actions:
            if action.kind == KILL_WORKER:
                kills[action.node] = kills.get(action.node, 0) + action.count
        return kills

    def poison_targets(self) -> list[ChaosAction]:
        return [a for a in self.actions if a.kind == POISON_SNAPSHOT]

    def arm_worker_kills(self, directory: str | Path) -> dict[str, str]:
        """Write per-node kill budgets the measure workers consume.

        Each ``kill_worker`` action becomes a ``kill-node-<n>`` count file;
        a worker process claiming one decrements it and dies by SIGKILL
        (see ``repro.farm.node``).  Returns the environment mapping the
        caller must apply (``{CHAOS_DIR_ENV: directory}``) for the kills
        to arm; an empty dict when the plan kills no workers.
        """
        kills = self.worker_kills()
        if not kills:
            return {}
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for node, count in kills.items():
            (directory / f"kill-node-{node}").write_text(str(count))
        return {CHAOS_DIR_ENV: str(directory)}


def poison_snapshot_file(path: str | Path, *, seed: int = 0) -> int:
    """Flip one deterministic payload byte of a snapshot file.

    Returns the flipped offset.  The CRC-checked snapshot format
    (:mod:`repro.serve.snapshot`) is guaranteed to detect the corruption;
    the serve worker then discards the snapshot and restarts the job from
    scratch instead of failing it (the ``poison_snapshot`` chaos story).
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
    base policy until fed; inside :func:`serve_resilient` it closes the
    incremental plan→measure→re-plan loop ROADMAP item 1 asks for.
    """

    def __init__(
        self,
        base: Scheduler | None = None,
        *,
        alpha: float = 0.4,
        initial_correction: Mapping[tuple[int, int], float] | None = None,
    ):
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
        """``view`` with every estimate scaled by its learned correction."""
        rows = [
            [
                max(1, round(view.estimates[node][service]
                             * self.correction(node, service)))
                for service in range(len(view.estimates[node]))
            ]
            for node in range(view.num_nodes)
        ]
        return FarmView(
            view.num_nodes, view.slos, rows, available=view.available
        )

    def dispatch(self, jobs: Sequence[Job], view: FarmView) -> list[Dispatch]:
        return self.base.dispatch(jobs, self.corrected_view(view))


# -- the resilient serving loop --------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the incremental serving loop.

    ``epoch_cycles`` is the re-planning cadence (and heartbeat period).
    ``suspect_after_cycles`` / ``dead_after_cycles`` default to one and
    three epochs of stalled progress.  ``hedge_grace_cycles`` is how far
    past its estimated completion a job on a *suspect* node may run before
    a speculative duplicate is dispatched (default: one epoch);
    ``max_hedges_per_epoch`` bounds the duplicated work.  ``mode_switch``
    arms MESC-style shedding of low-criticality classes when surviving
    capacity drops (see :class:`~repro.qos.config.ModeSwitchPolicy`).
    """

    epoch_cycles: int = 250_000
    suspect_after_cycles: int | None = None
    dead_after_cycles: int | None = None
    hedge: bool = True
    hedge_grace_cycles: int | None = None
    max_hedges_per_epoch: int = 8
    mode_switch: ModeSwitchPolicy | None = None
    max_epochs: int = 100_000

    def __post_init__(self):
        if self.epoch_cycles <= 0:
            raise SchedulerError("epoch_cycles must be positive")
        if self.max_hedges_per_epoch < 0:
            raise SchedulerError("max_hedges_per_epoch must be >= 0")
        if self.max_epochs <= 0:
            raise SchedulerError("max_epochs must be positive")

    @property
    def suspect_cycles(self) -> int:
        return self.suspect_after_cycles or self.epoch_cycles

    @property
    def dead_cycles(self) -> int:
        return self.dead_after_cycles or 3 * self.epoch_cycles

    @property
    def hedge_grace(self) -> int:
        return (
            self.hedge_grace_cycles
            if self.hedge_grace_cycles is not None
            else self.epoch_cycles
        )


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
    """What the resilient loop did beyond serving: the failure ledger."""

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


@dataclass(frozen=True)
class ResilientServeResult:
    """One resilient day: report, exactly-once outcomes, failure ledger."""

    report: "object"
    outcomes: tuple
    shed: tuple[Job, ...]
    dispatches: tuple[Dispatch, ...]
    resilience: ResilienceReport


@dataclass
class _InFlight:
    """One submitted copy of a job on one node."""

    job: Job
    dispatch_cycle: int
    estimate: int
    is_hedge: bool = False


class _LoopState:
    """Mutable bookkeeping of one :func:`serve_resilient` run."""

    def __init__(self, num_nodes: int, num_services: int):
        self.inflight: list[dict[int, deque[_InFlight]]] = [
            {service: deque() for service in range(num_services)}
            for _ in range(num_nodes)
        ]
        self.harvested: list[list[int]] = [
            [0] * num_services for _ in range(num_nodes)
        ]
        self.busy_est: list[int] = [0] * num_nodes
        self.completed: dict[int, NodeJobResult] = {}
        self.copies: dict[int, int] = {}
        self.hedged: set[int] = set()
        self.requeue: list[Job] = []
        self.shed: list[Job] = []
        self.dispatch_log: list[Dispatch] = []
        self.migrations = 0
        self.hedges_dispatched = 0
        self.hedges_won = 0
        self.hedges_wasted = 0
        self.mode = "normal"
        self.mode_switches: list[tuple[int, str]] = []

    def node_busy(self, node: int) -> bool:
        return any(queue for queue in self.inflight[node].values())


def _node_weights(view: FarmView) -> list[float]:
    """Per-node throughput proxy: inverse mean service estimate."""
    return [
        len(row) / sum(row) if sum(row) else 0.0 for row in view.estimates
    ]


def _capacity_fraction(view: FarmView, alive: Sequence[int]) -> float:
    weights = _node_weights(view)
    total = sum(weights)
    return sum(weights[node] for node in alive) / total if total else 0.0


def serve_resilient(
    farm: "Farm",
    jobs: Sequence[Job],
    *,
    resilience: ResilienceConfig | None = None,
    chaos: ChaosPlan | None = None,
) -> ResilientServeResult:
    """Serve a day through the incremental plan→measure→re-plan loop.

    Runs serially (node systems persist across epochs), so per-node obs
    is allowed.  ``chaos`` applies planned ``kill_node`` faults — worker
    and snapshot faults target the process-sharded paths and are ignored
    here.  The result's outcome set is exactly-once by construction: every
    arrival is either measured on some node or shed by the mode switch,
    and hedged duplicates are deduplicated first-result-wins before the
    join (which independently rejects duplicates).
    """
    cfg = resilience if resilience is not None else ResilienceConfig()
    num_nodes = len(farm.node_configs)
    num_services = len(farm.services)
    base_view = farm.view
    bus = farm.bus
    health = NodeHealth(
        num_nodes,
        suspect_after_cycles=cfg.suspect_cycles,
        dead_after_cycles=cfg.dead_cycles,
        bus=bus,
    )
    feedback = farm.scheduler if isinstance(farm.scheduler, FeedbackScheduler) else None
    inner: Scheduler = feedback.base if feedback is not None else farm.scheduler

    kills = chaos.node_kills() if chaos is not None else {}
    frozen: set[int] = set()  # killed, not (yet) healed: sim never advances
    healed: set[int] = set()

    systems = [
        build_node_system(config, farm.services, farm.vi_mode, obs=farm.obs)
        for config in farm.node_configs
    ]
    farm.node_systems = systems
    state = _LoopState(num_nodes, num_services)

    ordered = sorted(jobs, key=lambda job: (job.arrival_cycle, job.job_id))
    next_index = 0
    now = 0
    epochs = 0
    policy = cfg.mode_switch

    def corrected() -> FarmView:
        return feedback.corrected_view(base_view) if feedback else base_view

    def submit(node: int, job: Job, cycle: int, *, is_hedge: bool) -> None:
        estimate = corrected().estimate(node, job.service)
        systems[node].submit(job.service, cycle)
        state.inflight[node][job.service].append(
            _InFlight(job, cycle, estimate, is_hedge=is_hedge)
        )
        state.copies[job.job_id] = state.copies.get(job.job_id, 0) + 1
        state.busy_est[node] = max(state.busy_est[node], cycle + estimate)
        state.dispatch_log.append(Dispatch(job=job, node=node, dispatch_cycle=cycle))

    def migrate_dead_node(node: int, cycle: int) -> None:
        for service, queue in state.inflight[node].items():
            while queue:
                entry = queue.popleft()
                job_id = entry.job.job_id
                state.copies[job_id] -= 1
                if job_id in state.completed or state.copies[job_id] > 0:
                    continue  # a hedge copy already covers (or covered) it
                state.requeue.append(entry.job)
                state.migrations += 1
                if bus is not None:
                    bus.emit(
                        EventKind.JOB_MIGRATED,
                        cycle=cycle,
                        task_id=service,
                        job_id=job_id,
                        from_node=node,
                    )

    while len(state.completed) + len(state.shed) < len(jobs):
        epochs += 1
        if epochs > cfg.max_epochs:
            raise SchedulerError(
                f"resilient serve did not converge in {cfg.max_epochs} epochs "
                f"({len(jobs) - len(state.completed) - len(state.shed)} jobs "
                f"unaccounted)"
            )
        epoch_end = now + cfg.epoch_cycles
        # Idle fast-forward: nothing in flight, nothing to re-plan, next
        # arrival beyond this epoch — jump the epoch grid to it.
        if (
            not state.requeue
            and next_index < len(ordered)
            and not any(state.node_busy(node) for node in range(num_nodes))
        ):
            gap = ordered[next_index].arrival_cycle
            if gap >= epoch_end:
                epoch_end = (gap // cfg.epoch_cycles + 1) * cfg.epoch_cycles

        alive = health.alive_nodes()
        if not alive:
            raise SchedulerError(
                f"farm lost all {num_nodes} nodes with "
                f"{len(jobs) - len(state.completed) - len(state.shed)} jobs "
                f"unserved"
            )

        # -- mode switch (MESC): shed low-criticality work under capacity loss
        if policy is not None:
            fraction = _capacity_fraction(base_view, alive)
            if state.mode == "normal" and fraction < policy.capacity_threshold:
                state.mode = "degraded"
                state.mode_switches.append((now, "degraded"))
                if bus is not None:
                    bus.emit(
                        EventKind.MODE_SWITCH, cycle=now,
                        mode="degraded", capacity=fraction,
                    )
            elif (
                state.mode == "degraded"
                and policy.restore
                and fraction >= policy.capacity_threshold
            ):
                state.mode = "normal"
                state.mode_switches.append((now, "normal"))
                if bus is not None:
                    bus.emit(
                        EventKind.MODE_SWITCH, cycle=now,
                        mode="normal", capacity=fraction,
                    )

        # -- plan: this epoch's arrivals + migrated jobs onto healthy nodes
        batch = list(state.requeue)
        state.requeue = []
        while (
            next_index < len(ordered)
            and ordered[next_index].arrival_cycle < epoch_end
        ):
            batch.append(ordered[next_index])
            next_index += 1
        if state.mode == "degraded" and policy is not None:
            kept = []
            for job in batch:
                if base_view.slos[job.service].rank >= policy.shed_min_rank:
                    state.shed.append(job)
                    if bus is not None:
                        bus.emit(
                            EventKind.JOB_DEGRADED, cycle=now,
                            task_id=job.service, job_id=job.job_id,
                            action="mode_shed", tenant_id=job.tenant_id,
                        )
                else:
                    kept.append(job)
            batch = kept
        if batch:
            healthy = health.healthy_nodes()
            if not healthy:
                state.requeue = batch  # all survivors suspect: wait an epoch
            else:
                view = corrected()
                sub_view = FarmView(
                    len(healthy),
                    view.slos,
                    [view.estimates[node] for node in healthy],
                    available=[
                        max(state.busy_est[node], systems[node].clock, now)
                        for node in healthy
                    ],
                )
                batch.sort(key=lambda job: (job.arrival_cycle, job.job_id))
                plan = inner.dispatch(batch, sub_view)
                if len(plan) != len(batch):
                    raise SchedulerError(
                        f"scheduler {inner.name!r} planned {len(plan)} "
                        f"dispatches for {len(batch)} jobs"
                    )
                for entry in sorted(
                    plan, key=lambda d: (d.dispatch_cycle, d.job.job_id)
                ):
                    submit(
                        healthy[entry.node],
                        entry.job,
                        entry.dispatch_cycle,
                        is_hedge=False,
                    )

        # -- hedge: duplicate overdue work held by suspect nodes
        if cfg.hedge:
            hedges_left = cfg.max_hedges_per_epoch
            for node in range(num_nodes):
                if health.state(node) is not HealthState.SUSPECT:
                    continue
                for service, queue in state.inflight[node].items():
                    for entry in queue:
                        if hedges_left <= 0:
                            break
                        job_id = entry.job.job_id
                        if (
                            job_id in state.hedged
                            or job_id in state.completed
                            or state.copies.get(job_id, 0) > 1
                        ):
                            continue
                        if now < entry.dispatch_cycle + entry.estimate + cfg.hedge_grace:
                            continue
                        healthy = health.healthy_nodes()
                        if not healthy:
                            break
                        view = corrected()
                        target = min(
                            healthy,
                            key=lambda n: (
                                max(now, state.busy_est[n], systems[n].clock)
                                + view.estimate(n, service),
                                n,
                            ),
                        )
                        cycle = max(
                            now, state.busy_est[target], systems[target].clock
                        )
                        submit(target, entry.job, cycle, is_hedge=True)
                        state.hedged.add(job_id)
                        state.hedges_dispatched += 1
                        hedges_left -= 1
                        if bus is not None:
                            bus.emit(
                                EventKind.HEDGE_DISPATCH, cycle=now,
                                task_id=service, job_id=job_id,
                                from_node=node, to_node=target,
                            )

        # -- measure: one epoch of simulated time per surviving node
        for node in range(num_nodes):
            if not health.alive(node):
                continue
            kill = kills.get(node)
            if kill is not None and node not in healed:
                if kill.heal_cycle is not None and epoch_end > kill.heal_cycle:
                    # The hang ends inside this epoch: the node did nothing
                    # while frozen, so its clock jumps to the heal point.
                    healed.add(node)
                    frozen.discard(node)
                    system = systems[node]
                    system.iau.clock = max(system.iau.clock, kill.heal_cycle)
                elif node in frozen:
                    continue
                elif kill.at_cycle < epoch_end:
                    # Run up to the kill point, then freeze.
                    if systems[node].clock < kill.at_cycle:
                        systems[node].run(until_cycle=kill.at_cycle)
                    frozen.add(node)
                    continue
            systems[node].run(until_cycle=epoch_end)

        # -- harvest: join completions, feed corrections and heartbeats
        for node in range(num_nodes):
            if not health.alive(node):
                continue
            system = systems[node]
            for service in range(num_services):
                records = system.jobs(service)
                queue = state.inflight[node][service]
                while state.harvested[node][service] < len(records):
                    record = records[state.harvested[node][service]]
                    state.harvested[node][service] += 1
                    if not queue:
                        raise SchedulerError(
                            f"node {node} slot {service} completed a job "
                            f"the loop never submitted"
                        )
                    entry = queue.popleft()
                    if record.request_cycle != entry.dispatch_cycle:
                        raise SchedulerError(
                            f"node {node} slot {service}: dispatch/record "
                            f"order mismatch at job {entry.job.job_id}"
                        )
                    job_id = entry.job.job_id
                    state.copies[job_id] -= 1
                    if feedback is not None:
                        feedback.observe(
                            node,
                            service,
                            estimated=base_view.estimate(node, service),
                            measured=record.complete_cycle - entry.dispatch_cycle,
                        )
                    if job_id in state.completed:
                        state.hedges_wasted += 1
                        if bus is not None:
                            bus.emit(
                                EventKind.HEDGE_WASTED, cycle=epoch_end,
                                task_id=service, job_id=job_id, node=node,
                            )
                        continue
                    state.completed[job_id] = NodeJobResult(
                        job_id=job_id,
                        node=node,
                        service=service,
                        dispatch_cycle=entry.dispatch_cycle,
                        start_cycle=record.start_cycle,
                        complete_cycle=record.complete_cycle,
                    )
                    if job_id in state.hedged:
                        state.hedges_won += 1
                        if bus is not None:
                            bus.emit(
                                EventKind.HEDGE_WIN, cycle=epoch_end,
                                task_id=service, job_id=job_id, node=node,
                                source="hedge" if entry.is_hedge else "primary",
                            )
            was_alive = health.alive(node)
            new_state = health.beat(
                node,
                clock=system.clock,
                busy=state.node_busy(node),
                now=epoch_end,
            )
            if was_alive and new_state is HealthState.DEAD:
                migrate_dead_node(node, epoch_end)

        now = epoch_end

    # Hedge copies still in flight when the day completes are abandoned
    # redundant work: count them as wasted.
    for node in range(num_nodes):
        for queue in state.inflight[node].values():
            state.hedges_wasted += sum(1 for entry in queue if entry.is_hedge)

    results = [state.completed[job_id] for job_id in sorted(state.completed)]
    outcomes = join_outcomes(list(jobs), results, shed=state.shed)
    report = build_report(
        farm.scheduler.name,
        outcomes,
        [service.slo for service in farm.services],
        estimates=base_view.estimates,
        shed=state.shed,
    )
    per_node_completed = [0] * num_nodes
    for result in results:
        per_node_completed[result.node] += 1
    summary = tuple(
        NodeSummary(
            node=node,
            state=health.state(node),
            final_cycle=systems[node].clock,
            completed=per_node_completed[node],
            killed_at=kills[node].at_cycle if node in kills else None,
        )
        for node in range(num_nodes)
    )
    resilience_report = ResilienceReport(
        epochs=epochs,
        nodes=summary,
        migrations=state.migrations,
        hedges_dispatched=state.hedges_dispatched,
        hedges_won=state.hedges_won,
        hedges_wasted=state.hedges_wasted,
        shed_jobs=len(state.shed),
        mode_switches=tuple(state.mode_switches),
        capacity_fraction=_capacity_fraction(base_view, health.alive_nodes()),
    )
    return ResilientServeResult(
        report=report,
        outcomes=tuple(outcomes),
        shed=tuple(state.shed),
        dispatches=tuple(state.dispatch_log),
        resilience=resilience_report,
    )


# -- chaos campaigns -------------------------------------------------------


@dataclass(frozen=True)
class ChaosTrial:
    """One chaos plan's run, checked against the golden invariants."""

    plan: ChaosPlan
    result: ResilientServeResult
    lost_jobs: int
    duplicated_jobs: int
    gold_attainment: float
    gold_floor: float
    invariants_ok: bool


@dataclass(frozen=True)
class ChaosCampaignReport:
    """A golden run plus every chaos trial, with the invariant table."""

    golden: ResilientServeResult
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
    golden = serve_resilient(farm_factory(), jobs, resilience=resilience)
    golden_gold = golden.report.by_class(gold_class).attainment
    all_ids = sorted(job.job_id for job in jobs)
    trials = []
    for plan in plans:
        result = serve_resilient(
            farm_factory(), jobs, resilience=resilience, chaos=plan
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
    "CHAOS_DIR_ENV",
    "ChaosAction",
    "ChaosCampaignReport",
    "ChaosPlan",
    "ChaosTrial",
    "FeedbackScheduler",
    "HealthState",
    "NodeHealth",
    "NodeSummary",
    "ResilienceConfig",
    "ResilienceReport",
    "ResilientServeResult",
    "poison_snapshot_file",
    "run_chaos_campaign",
    "serve_resilient",
]
