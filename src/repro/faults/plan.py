"""Seeded fault plans: *what* goes wrong, *where*, and *how often*.

A :class:`FaultPlan` is the single configuration object the injectors
threaded through the stack consult.  It owns one deterministic RNG stream
per :class:`FaultSite` (seeded from ``(seed, site)``, so adding a site or
re-ordering draws at one site never perturbs another) and records every
fault it fires as an :class:`InjectedFault` — the campaign runner's ground
truth when classifying a run.

The plan is pure configuration + bookkeeping; the components own the
mechanics:

* :class:`~repro.hw.ddr.Ddr` — bit flips and stalled bursts (ECC model);
* :class:`~repro.iau.unit.Iau` — dropped / spurious preemption requests,
  corrupted Vir_SAVE checkpoints, job overruns;
* :class:`~repro.runtime.system.MultiTaskSystem` — overload degradation;
* :class:`~repro.ros.executor.Executor` — dropped / delayed messages.

With no plan attached (``faults=None`` everywhere) none of the hooks run
and simulations are cycle-for-cycle identical to an unfaulted build.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import FaultError
from repro.state import Shared, Stateful


class FaultSite(enum.Enum):
    """The closed set of injection sites threaded through the stack."""

    #: A DDR read disturbance flips one bit in a region (SECDED-correctable).
    DDR_BIT_FLIP = "ddr.bit_flip"
    #: A DDR burst stalls for :attr:`FaultPlan.ddr_stall_cycles` extra cycles.
    DDR_STALL = "ddr.stall"
    #: The interrupt line glitches low: a pending preemption is not seen at
    #: this switch point (it fires at the next one instead).
    IAU_DROP_PREEMPT = "iau.drop_preempt"
    #: The interrupt line glitches high: a preemption fires with no
    #: higher-priority work, paying backup + recovery for nothing.
    IAU_SPURIOUS_PREEMPT = "iau.spurious_preempt"
    #: The Vir_SAVE backup burst writes garbage: the checkpoint context in
    #: DDR no longer matches its CRC.
    CHECKPOINT_CORRUPT = "checkpoint.corrupt"
    #: A job hangs for :attr:`FaultPlan.overrun_cycles` at dispatch (runaway
    #: kernel / bus contention), tripping the per-job watchdog.
    JOB_OVERRUN = "job.overrun"
    #: A published ROS message is lost before delivery.
    ROS_DROP = "ros.drop"
    #: A published ROS message is delivered :attr:`FaultPlan.ros_delay_cycles`
    #: late.
    ROS_DELAY = "ros.delay"


#: Every site, in declaration order (campaign sweeps iterate this).
ALL_SITES: tuple[FaultSite, ...] = tuple(FaultSite)


@dataclass(frozen=True)
class InjectedFault(Shared):
    """One fault the plan actually fired (the campaign's ground truth)."""

    site: FaultSite
    cycle: int
    detail: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DeadlineMissed:
    """Typed watchdog outcome attached to a job that overran its deadline."""

    task_id: int
    deadline_cycles: int
    turnaround_cycles: int
    request_cycle: int

    @property
    def overrun_cycles(self) -> int:
        return self.turnaround_cycles - self.deadline_cycles


@dataclass(frozen=True)
class DegradationPolicy:
    """How the runtime sheds load instead of missing FE deadlines.

    Applied to tasks with ``task_id >= min_task_id`` (priority 0, the
    safety-critical FE, is never degraded).  When a request arrives while
    the task already has ``max_pending`` jobs queued or running, the request
    is shed (dropped with a ``JOB_DEGRADED`` event).  When ``downtier_pending``
    is set and the backlog reaches it, subsequent jobs run the task's
    ``downtier_vi_mode`` program (fewer virtual instructions, lower fetch
    overhead) until the backlog drains below the threshold.
    """

    max_pending: int = 4
    min_task_id: int = 1
    downtier_pending: int | None = None
    downtier_vi_mode: str = "layer"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise FaultError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.downtier_pending is not None and not (
            1 <= self.downtier_pending <= self.max_pending
        ):
            raise FaultError(
                f"downtier_pending must be in [1, max_pending], got {self.downtier_pending}"
            )


class FaultPlan(Stateful):
    """Deterministic, seeded fault-injection schedule.

    ``rates`` maps sites (or their string values) to per-opportunity firing
    probabilities in [0, 1].  Two plans with equal seeds and rates inject
    the identical fault sequence into a deterministic simulation.
    """

    #: The fired-fault log and the per-site RNG positions: restoring the
    #: streams is what makes a resumed run draw the *identical* fault
    #: sequence an uninterrupted run would — the bit-exactness oracle for
    #: armed snapshots.
    STATE = ("injected", "_rngs")

    def __init__(
        self,
        seed: int = 0,
        rates: Mapping[FaultSite | str, float] | None = None,
        *,
        ddr_stall_cycles: int = 200,
        overrun_cycles: int = 20_000,
        ros_delay_cycles: int = 5_000,
        max_checkpoint_retries: int = 3,
        uncorrectable_share: float = 0.0,
    ) -> None:
        self.seed = seed
        self.ddr_stall_cycles = _positive("ddr_stall_cycles", ddr_stall_cycles)
        self.overrun_cycles = _positive("overrun_cycles", overrun_cycles)
        self.ros_delay_cycles = _positive("ros_delay_cycles", ros_delay_cycles)
        self.max_checkpoint_retries = _positive(
            "max_checkpoint_retries", max_checkpoint_retries
        )
        if not 0.0 <= uncorrectable_share <= 1.0:
            raise FaultError(
                f"uncorrectable_share must be in [0, 1], got {uncorrectable_share}"
            )
        self.uncorrectable_share = uncorrectable_share
        self._rates: dict[FaultSite, float] = {}
        for site, rate in (rates or {}).items():
            site = self._coerce_site(site)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"rate for {site.value} must be in [0, 1], got {rate}")
            self._rates[site] = rate
        # One independent, deterministic stream per site.  ``random.Random``
        # seeds strings via SHA-512, so this is stable across processes
        # (unlike ``hash()``, which is salted).
        self._rngs: dict[FaultSite, random.Random] = {
            site: random.Random(f"{seed}:{site.value}") for site in FaultSite
        }
        #: Every fault fired so far, in injection order.
        self.injected: list[InjectedFault] = []
        # Fire-oracle cache: per site, ``(count, exact)`` — how many upcoming
        # draws are *known* to not fire, and whether the peek that counted
        # them ended at a fire (``exact``: draw ``count`` is the next fire) or
        # was cut by its limit (a lower bound).  Counted down by
        # ``fires``/``burn`` and dropped whenever the stream moves in any
        # other way; derived from the stream positions, never snapshotted.
        self._safe_ahead: dict[FaultSite, tuple[int, bool]] = {}

    @staticmethod
    def _coerce_site(site: FaultSite | str) -> FaultSite:
        if isinstance(site, FaultSite):
            return site
        try:
            return FaultSite(site)
        except ValueError:
            raise FaultError(
                f"unknown fault site {site!r}; choose from "
                f"{[member.value for member in FaultSite]}"
            ) from None

    # -- draws ---------------------------------------------------------------

    def rate(self, site: FaultSite) -> float:
        return self._rates.get(site, 0.0)

    def fires(self, site: FaultSite) -> bool:
        """One Bernoulli draw from the site's stream (False at rate 0)."""
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        fired = self._rngs[site].random() < rate
        if fired:
            self._safe_ahead.pop(site, None)
        else:
            self._consume(site, 1)
        return fired

    def _consume(self, site: FaultSite, count: int) -> None:
        """Count the oracle cache down by ``count`` non-firing draws."""
        cached = self._safe_ahead.get(site)
        if cached is not None:
            self._safe_ahead[site] = (max(0, cached[0] - count), cached[1])

    def draw_index(self, site: FaultSite, bound: int) -> int:
        """A uniform index in [0, bound) from the site's stream."""
        if bound <= 0:
            raise FaultError(f"draw_index bound must be positive, got {bound}")
        self._safe_ahead.pop(site, None)
        return self._rngs[site].randrange(bound)

    def draw_uncorrectable(self) -> bool:
        """Whether an injected DDR flip exceeds SECDED correction."""
        if self.uncorrectable_share <= 0.0:
            return False
        self._safe_ahead.pop(FaultSite.DDR_BIT_FLIP, None)
        return self._rngs[FaultSite.DDR_BIT_FLIP].random() < self.uncorrectable_share

    # -- fire oracle ---------------------------------------------------------

    def safe_draws(self, site: FaultSite, limit: int) -> int:
        """How many of the next ``limit`` draws at ``site`` provably miss.

        Peeks ahead on the site's private RNG stream *without perturbing it*
        (the stream state is saved and restored around the peek), returning
        the count of consecutive guaranteed non-fires from the current
        position, capped at ``limit``.  A rate-0 site never draws at all, so
        every opportunity is safe.  The result is a prefix: the caller may
        :meth:`burn` up to that many draws and is guaranteed none of them
        would have fired.

        The answer is cached with its kind.  A peek that *found* the next
        fire knows its distance exactly, so until the stream moves past it
        every later query — whatever its ``limit`` — is answered from the
        cache without touching the RNG; a peek cut by ``limit`` only proved
        a lower bound, good for queries up to that many draws.
        """
        if limit <= 0:
            return 0
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return limit
        cached = self._safe_ahead.get(site)
        if cached is not None and (cached[1] or cached[0] >= limit):
            return min(cached[0], limit)
        rng = self._rngs[site]
        state = rng.getstate()
        safe = 0
        while safe < limit:
            if rng.random() < rate:
                break
            safe += 1
        rng.setstate(state)
        self._safe_ahead[site] = (safe, safe < limit)
        return safe

    def burn(self, site: FaultSite, count: int) -> None:
        """Advance the site's stream past ``count`` known-safe draws.

        Replays exactly the RNG consumption ``count`` non-firing
        :meth:`fires` calls would have performed (none at rate 0 — ``fires``
        does not draw there), keeping a batched run's stream position
        bit-identical to the step-wise run it replaces.  Only draws
        :meth:`safe_draws` has vouched for may be burned: going past them
        would swallow a firing draw and desynchronise the stream from the
        stepped run, so that raises :class:`~repro.errors.FaultError`.
        """
        if count <= 0:
            return
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return
        vouched = self._safe_ahead.get(site, (0, False))[0]
        if count > vouched:
            raise FaultError(
                f"burn({site.value}, {count}) exceeds the {vouched} draws "
                "safe_draws has vouched for"
            )
        rng = self._rngs[site]
        for _ in range(count):
            rng.random()
        self._consume(site, count)

    # -- snapshot/restore ----------------------------------------------------

    def _reset_derived(self) -> None:
        """The fire-oracle cache is a function of the stream positions."""
        self._safe_ahead.clear()

    # -- bookkeeping ---------------------------------------------------------

    def record(self, site: FaultSite, cycle: int, **detail: Any) -> InjectedFault:
        fault = InjectedFault(site=site, cycle=cycle, detail=detail)
        self.injected.append(fault)
        return fault

    def sites_injected(self) -> set[FaultSite]:
        return {fault.site for fault in self.injected}

    def count(self, site: FaultSite | None = None) -> int:
        if site is None:
            return len(self.injected)
        return sum(1 for fault in self.injected if fault.site == site)


def _positive(name: str, value: int) -> int:
    if value <= 0:
        raise FaultError(f"{name} must be positive, got {value}")
    return value
