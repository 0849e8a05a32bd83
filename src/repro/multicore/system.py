"""Multi-core multi-tasking (the paper's stated future work, §VI).

INCA's conclusion: "INCA currently focuses on interrupt support for
single-core multi-tasking. We plan to investigate the multi-core
multi-tasking for CNN accelerators as part of future work."

This module provides that investigation as a simulator: N accelerator cores
(each an unchanged core + IAU pair) sharing one DDR address space, with a
dispatcher placing jobs onto cores.  Two placement policies:

* ``static`` — each task is pinned to one core (spatial isolation);
* ``least-loaded`` — each *job* goes to the idle core with the smallest
  clock, falling back to the core with the fewest queued jobs; priorities
  still pre-empt within a core via the VI mechanism.

DDR bandwidth contention between cores is not modelled (each core sees the
configured bandwidth); the ablation benchmark documents this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.accel.core import AcceleratorCore
from repro.compiler.compile import CompiledNetwork
from repro.errors import SchedulerError

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.iau.context import JobRecord
from repro.iau.unit import Iau
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.runtime.system import ArrivalPolicy, SubmitSurface

PLACEMENTS = ("static", "least-loaded")


@dataclass(frozen=True, order=True)
class _Request:
    cycle: int
    sequence: int
    task_id: int


@dataclass
class _TaskBinding:
    compiled: CompiledNetwork
    vi_mode: str
    static_core: int | None


class MultiCoreSystem(SubmitSurface):
    """N independent (core, IAU) pairs behind one job dispatcher."""

    def __init__(
        self,
        config: AcceleratorConfig,
        num_cores: int,
        iau_mode: str = "virtual",
        placement: str = "static",
        *,
        obs: ObsConfig | None = None,
        faults: "FaultPlan | None" = None,
    ):
        if num_cores < 1:
            raise SchedulerError(f"num_cores must be >= 1, got {num_cores}")
        if placement not in PLACEMENTS:
            raise SchedulerError(f"placement must be one of {PLACEMENTS}")
        self.config = config
        self.placement = placement
        self.obs = obs if obs is not None else ObsConfig()
        # All cores share one bus; each IAU tags its events with a scope so
        # exporters can separate the per-core streams.
        self.bus: EventBus | None = (
            EventBus(record=self.obs.events, sinks=self.obs.sinks)
            if self.obs.enabled
            else None
        )
        self.ddr = Ddr()
        self.faults = faults
        # The plan is shared: one DDR, one set of per-site RNG streams.
        self.cores: list[Iau] = [
            Iau(
                AcceleratorCore(config, self.ddr, obs=self.obs),
                mode=iau_mode,
                bus=self.bus,
                obs_scope=f"core{index}",
                faults=faults,
            )
            for index in range(num_cores)
        ]
        self._bindings: dict[int, _TaskBinding] = {}
        self._requests: list[_Request] = []
        self._sequence = 0
        #: Undispatched requests per task (keeps NOW_IF_FREE O(cores)).
        self._pending: dict[int, int] = {}

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    # -- setup ----------------------------------------------------------------

    def add_task(
        self,
        task_id: int,
        compiled: CompiledNetwork,
        vi_mode: str = "vi",
        core: int | None = None,
        *,
        deadline_cycles: int | None = None,
    ) -> None:
        """Bind a network to a priority slot; ``core`` pins it (static).

        With dynamic placement the task is attached to *every* core so any
        of them can run its jobs.
        """
        if task_id in self._bindings:
            raise SchedulerError(f"task {task_id} already attached")
        if self.placement == "static":
            if core is None:
                core = task_id % self.num_cores
            if not 0 <= core < self.num_cores:
                raise SchedulerError(f"core {core} out of range")
            targets = [core]
        else:
            if core is not None:
                raise SchedulerError("core pinning requires placement='static'")
            targets = list(range(self.num_cores))
        for region in compiled.layout.ddr.regions():
            if region.name not in {r.name for r in self.ddr.regions()}:
                self.ddr.adopt(region)
        for target in targets:
            self.cores[target].attach_task(
                task_id, compiled, vi_mode=vi_mode, deadline_cycles=deadline_cycles
            )
        self._bindings[task_id] = _TaskBinding(
            compiled=compiled, vi_mode=vi_mode, static_core=core
        )
        self._pending[task_id] = 0

    # -- request injection (submit() inherited from SubmitSurface) ------------
    #
    # Same ArrivalPolicy surface as the single-core MultiTaskSystem,
    # NOW_IF_FREE included: the dispatcher's "now" is the slowest core's
    # clock, and a task counts as busy while any core holds queued, active,
    # or undispatched work for it.

    def _has_task(self, task_id: int) -> bool:
        return task_id in self._bindings

    def _submit_clock(self) -> int:
        return min(core.clock for core in self.cores)

    def _task_busy(self, task_id: int) -> bool:
        if self._pending[task_id]:
            return True
        return any(
            core.contexts[task_id] is not None and core.contexts[task_id].runnable
            for core in self.cores
            if task_id < len(core.contexts)
        )

    def _schedule(self, task_id: int, at_cycle: int) -> None:
        # Same validation surface as the single-core MultiTaskSystem: the
        # dispatcher's "now" is the slowest core's clock — nothing can be
        # back-dated to before it.
        now = self._submit_clock()
        if at_cycle < now:
            raise SchedulerError(
                f"cannot submit in the past (at {at_cycle}, clock {now})"
            )
        heapq.heappush(self._requests, _Request(at_cycle, self._sequence, task_id))
        self._sequence += 1
        self._pending[task_id] += 1

    # -- dispatch ---------------------------------------------------------------

    def _advance_core_to(self, core: Iau, cycle: int, max_steps: int) -> None:
        steps = 0
        while not core.idle and core.clock < cycle:
            # Batch up to the dispatch horizon; steps at every switch point
            # and through a stretch too short to batch (cycle-exact either
            # way).
            core.run_batched(cycle)
            steps += 1
            if steps > max_steps:
                raise SchedulerError("core failed to reach dispatch time")
        if core.idle:
            core.clock = max(core.clock, cycle)

    def _choose_core(self, task_id: int, cycle: int, max_steps: int) -> Iau:
        binding = self._bindings[task_id]
        if self.placement == "static":
            return self.cores[binding.static_core]
        # Bring every core's view up to the request time, then pick the
        # emptiest one (idle beats busy; fewer queued jobs beats more).
        for core in self.cores:
            self._advance_core_to(core, cycle, max_steps)

        def load(core: Iau) -> tuple[int, int, int]:
            pending = sum(
                (1 if context.active else 0) + len(context.queue)
                for context in core.contexts
                if context is not None
            )
            return (0 if core.idle else 1, pending, core.clock)

        return min(self.cores, key=load)

    def run(self, max_steps: int = 500_000_000) -> int:
        """Dispatch every request and drain every core; returns max clock.

        ``max_steps`` bounds dispatch iterations (``run_batched`` calls),
        not instructions: one call retires a whole stretch, or steps
        through a short one.
        """
        while self._requests:
            request = heapq.heappop(self._requests)
            self._pending[request.task_id] -= 1
            core = self._choose_core(request.task_id, request.cycle, max_steps)
            self._advance_core_to(core, request.cycle, max_steps)
            core.request(request.task_id, at_cycle=request.cycle)
        steps = 0
        for core in self.cores:
            # No arrivals remain: drain each core with an unbounded horizon.
            while core.run_batched():
                steps += 1
                if steps > max_steps:
                    raise SchedulerError(f"drain exceeded {max_steps} steps")
        if self.faults is not None:
            self.ddr.scrub()
        return max(core.clock for core in self.cores)

    # -- results ---------------------------------------------------------------

    def jobs(self, task_id: int) -> list[JobRecord]:
        """All completed jobs of a task across cores, in request order."""
        collected: list[JobRecord] = []
        for core in self.cores:
            context = core.contexts[task_id] if task_id < len(core.contexts) else None
            if context is not None:
                collected.extend(context.completed)
        collected.sort(key=lambda job: job.request_cycle)
        return collected

    def summary(self) -> str:
        """Plain-text per-task observability summary (needs ``obs.events``)."""
        if self.bus is None:
            raise SchedulerError(
                "no events recorded: construct with obs=ObsConfig(events=True)"
            )
        from repro.obs.export import summarize

        return summarize(self.bus)

    def core_busy_cycles(self) -> list[int]:
        """Per-core busy time (for utilisation/balance analysis)."""
        return [
            sum(
                context.busy_cycles
                for context in core.contexts
                if context is not None
            )
            for core in self.cores
        ]

    def makespan(self) -> int:
        return max(core.clock for core in self.cores)
