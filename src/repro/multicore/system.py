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

from heapq import heappop
from typing import TYPE_CHECKING

from repro.accel.core import AcceleratorCore
from repro.compiler.compile import CompiledNetwork
from repro.errors import SchedulerError

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
from repro.hw.config import AcceleratorConfig
from repro.hw.ddr import Ddr
from repro.iau.context import JobRecord, TaskContext
from repro.iau.unit import Iau
from repro.obs.bus import EventBus
from repro.obs.config import ObsConfig
from repro.runtime.system import SubmitSurface, TimedRequest, advance

PLACEMENTS = ("static", "least-loaded")


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
        #: Each attached task's pinned core (None: placed per job).
        self._pinned: dict[int, int | None] = {}
        self._requests = []
        self._sequence = 0
        self._pending = {}

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
        if task_id in self._pinned:
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
        self._pinned[task_id] = core
        self._pending[task_id] = 0

    # -- request injection (submit() inherited from SubmitSurface) ------------
    #
    # Same ArrivalPolicy surface as the single-core MultiTaskSystem,
    # NOW_IF_FREE included: the dispatcher's "now" is the slowest core's
    # clock, and a task counts as busy while any core holds queued, active,
    # or undispatched work for it.

    def _has_task(self, task_id: int) -> bool:
        return task_id in self._pinned

    def _submit_clock(self) -> int:
        return min(core.clock for core in self.cores)

    def _task_busy(self, task_id: int) -> bool:
        return bool(self._pending[task_id]) or any(
            context.runnable for context in self._contexts(task_id)
        )

    def _contexts(self, task_id: int) -> list[TaskContext]:
        """The task's context on every core it is attached to."""
        return [
            context for core in self.cores
            if task_id < len(core.contexts) and (context := core.contexts[task_id]) is not None
        ]

    # -- dispatch ---------------------------------------------------------------
    #
    # The dispatcher has no clock of its own: it places its requests in
    # heap order, and each placement brings cores up to the request's
    # cycle with the shared clock loop over an empty heap.  One step
    # budget spans a whole run() call.

    def _advance_core(self, core: Iau, until: int | None) -> None:
        self._budget -= advance(core, [], _nothing, core.run_batched, until, self._budget)
        if self._budget < 0:
            raise SchedulerError(f"cores did not finish in {self._max_steps} steps")
        if until is not None:
            core.clock = max(core.clock, until)  # an idle core waits for it

    def _choose_core(self, task_id: int, cycle: int) -> Iau:
        pinned = self._pinned[task_id]
        if pinned is not None:  # static placement
            return self.cores[pinned]
        # Bring every core's view up to the request time, then pick the
        # emptiest one (idle beats busy; fewer queued jobs beats more).
        for core in self.cores:
            self._advance_core(core, cycle)

        def load(core: Iau) -> tuple[int, int, int]:
            pending = sum(
                (1 if context.active else 0) + len(context.queue)
                for context in core.contexts
                if context is not None
            )
            return (0 if core.idle else 1, pending, core.clock)

        return min(self.cores, key=load)

    def _place(self, request: TimedRequest) -> None:
        task_id = request.payload
        self._pending[task_id] -= 1
        core = self._choose_core(task_id, request.cycle)
        self._advance_core(core, request.cycle)
        core.request(task_id, at_cycle=request.cycle)

    def run(self, max_steps: int = 500_000_000) -> int:
        """Dispatch every request and drain every core; returns max clock.

        ``max_steps`` bounds the engine calls that did work (``run_batched``
        calls that ran something) across all cores, per call, not
        instructions: one call retires a whole stretch, or steps through a
        short one.
        """
        self._budget = self._max_steps = max_steps
        while self._requests:
            self._place(heappop(self._requests))
        for core in self.cores:
            self._advance_core(core, None)  # no arrivals remain: drain
        if self.faults is not None:
            self.ddr.scrub()
        return max(core.clock for core in self.cores)

    # -- results ---------------------------------------------------------------

    def jobs(self, task_id: int) -> list[JobRecord]:
        """All completed jobs of a task across cores, in request order."""
        jobs = [job for context in self._contexts(task_id) for job in context.completed]
        return sorted(jobs, key=lambda job: job.request_cycle)

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


def _nothing(request: TimedRequest) -> None:
    """``deliver`` of a per-core advance: its heap is always empty."""
