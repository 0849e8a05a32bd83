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
from bisect import bisect_left, bisect_right
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
        # Fire-oracle look-ahead: per site, the draws already taken from the
        # stream past its logical position (see :class:`_Lookahead`).
        # ``fires`` pops from it and ``burn`` moves its cursor, so a batched
        # run draws every value once; derived, never snapshotted.
        self._ahead: dict[FaultSite, _Lookahead] = {}

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
        ahead = self._ahead.get(site)
        if ahead is None:
            return self._rngs[site].random() < rate
        return ahead.pop()

    def draw_index(self, site: FaultSite, bound: int) -> int:
        """A uniform index in [0, bound) from the site's stream."""
        if bound <= 0:
            raise FaultError(f"draw_index bound must be positive, got {bound}")
        self._sync(site)
        return self._rngs[site].randrange(bound)

    def draw_uncorrectable(self) -> bool:
        """Whether an injected DDR flip exceeds SECDED correction."""
        if self.uncorrectable_share <= 0.0:
            return False
        self._sync(FaultSite.DDR_BIT_FLIP)
        return self._rngs[FaultSite.DDR_BIT_FLIP].random() < self.uncorrectable_share

    def _sync(self, site: FaultSite) -> None:
        """Put the site's stream back on its logical position (dropping the
        look-ahead) before a draw that is not a Bernoulli one."""
        ahead = self._ahead.pop(site, None)
        if ahead is not None and ahead.cursor < ahead.scanned:
            ahead.rewind()

    # -- fire oracle ---------------------------------------------------------

    def _lookahead(self, site: FaultSite, rate: float) -> "_Lookahead":
        ahead = self._ahead.get(site)
        if ahead is None:
            ahead = self._ahead[site] = _Lookahead(self._rngs[site], rate)
        return ahead

    def safe_draws(self, site: FaultSite, limit: int) -> int:
        """How many of the next ``limit`` draws at ``site`` provably miss.

        Reads ahead on the site's stream into its look-ahead buffer, which
        :meth:`fires` and :meth:`burn` then consume, so every value is
        drawn from the ``Random`` once; the logical stream position — what
        :meth:`fires` sees and what a snapshot holds — does not move.
        Returns the count of consecutive guaranteed non-fires from the
        logical position, capped at ``limit``.  The scan stops at the first
        fire, so once a fire is in the buffer every later query is answered
        without drawing.  A rate-0 site never draws at all, so every
        opportunity is safe.  The caller may :meth:`burn` up to that many
        draws and is guaranteed none of them would have fired.
        """
        if limit <= 0:
            return 0
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return limit
        return self._lookahead(site, rate).safe(limit)

    def fire_offsets(self, site: FaultSite, limit: int) -> list[int]:
        """The offsets, from the logical position, of the draws among the
        next ``limit`` at ``site`` that fire (none at rate 0).  Like
        :meth:`safe_draws` it reads ahead into the buffer without moving
        the logical position; unlike it, the scan runs through fires."""
        rate = self._rates.get(site, 0.0)
        if limit <= 0 or rate <= 0.0:
            return []
        return self._lookahead(site, rate).fires_within(limit)

    def burn(self, site: FaultSite, count: int, fired: int = 0) -> None:
        """Advance the site's logical position past ``count`` read-ahead
        draws, exactly ``fired`` of which fire.

        Equals the RNG consumption of ``count`` :meth:`fires` calls (none
        at rate 0 — ``fires`` does not draw there), keeping a batched run's
        stream position bit-identical to the step-wise run it replaces.
        Only draws :meth:`safe_draws` or :meth:`fire_offsets` has read may
        be burned, and only with their fires accounted for: anything else
        would swallow a firing draw and desynchronise the stream from the
        stepped run, so it raises :class:`~repro.errors.FaultError`.
        """
        if count <= 0:
            return
        rate = self._rates.get(site, 0.0)
        if rate <= 0.0:
            return
        ahead = self._ahead.get(site)
        read = 0 if ahead is None else ahead.scanned - ahead.cursor
        crossed = 0 if ahead is None or count > read else ahead.fires_before(count)
        if count > read or crossed != fired:
            raise FaultError(
                f"burn({site.value}, {count}, fired={fired}) goes past what the "
                f"oracle vouched for: {read} draws read ahead, {crossed} of the "
                "burned ones fire"
            )
        assert ahead is not None  # count <= read > 0
        ahead.skip(count, fired)

    # -- snapshot/restore ----------------------------------------------------

    def state_view(self) -> dict[str, Any]:
        """The declared state at the *logical* stream positions: a snapshot
        of an armed run holds the bytes a run that never read ahead would."""
        for site in list(self._ahead):
            self._sync(site)
        return super().state_view()

    def _reset_derived(self) -> None:
        """The look-ahead belongs to the streams the restore replaced."""
        self._ahead.clear()

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


class _Lookahead:
    """Draws taken from one site's stream past its logical position.

    ``scanned`` draws have been taken from the ``Random`` since the
    buffer's origin; ``cursor`` of them are logically consumed; ``fired``
    lists (ascending, counted from the origin) the ones that fire, ``head``
    indexing the first not yet consumed.  The buffer lives as long as only
    Bernoulli draws move the stream.  Stream states are kept at the origin
    and every :data:`_CHECKPOINT` draws (those behind the cursor are
    dropped as the scan moves on), so :meth:`rewind` redraws fewer than
    that many values.
    """

    def __init__(self, rng: random.Random, rate: float) -> None:
        self.rng = rng
        self.rate = rate
        self.offsets = [0]
        self.states = [rng.getstate()]
        self.scanned = 0
        self.cursor = 0
        self.fired: list[int] = []
        self.head = 0

    def _scan(self, upto: int, to_fire: bool) -> None:
        """Draw up to offset ``upto``, stopping after a fire if ``to_fire``."""
        draw, rate, fired = self.rng.random, self.rate, self.fired
        while self.scanned < upto:
            if self.scanned - self.offsets[-1] >= _CHECKPOINT:
                self._checkpoint()
            end = min(upto, self.offsets[-1] + _CHECKPOINT)
            if not to_fire:
                fired += [offset for offset in range(self.scanned, end) if draw() < rate]
            else:
                for offset in range(self.scanned, end):
                    if draw() < rate:
                        fired.append(offset)
                        self.scanned = offset + 1
                        return
            self.scanned = end

    def _checkpoint(self) -> None:
        keep = bisect_right(self.offsets, self.cursor) - 1
        del self.offsets[:keep], self.states[:keep], self.fired[: self.head]
        self.head = 0
        self.offsets.append(self.scanned)
        self.states.append(self.rng.getstate())

    def safe(self, limit: int) -> int:
        if len(self.fired) == self.head:
            self._scan(self.cursor + limit, to_fire=True)
        if len(self.fired) > self.head:
            return min(self.fired[self.head] - self.cursor, limit)
        return limit

    def fires_within(self, limit: int) -> list[int]:
        end = self.cursor + limit
        self._scan(end, to_fire=False)
        stop = bisect_left(self.fired, end, self.head)
        return [offset - self.cursor for offset in self.fired[self.head : stop]]

    def fires_before(self, count: int) -> int:
        return bisect_left(self.fired, self.cursor + count, self.head) - self.head

    def pop(self) -> bool:
        if self.cursor == self.scanned:  # nothing read ahead: draw in step
            if self.scanned - self.offsets[-1] >= _CHECKPOINT:
                self._checkpoint()
            self.scanned = self.cursor = self.cursor + 1
            return self.rng.random() < self.rate
        fired = len(self.fired) > self.head and self.fired[self.head] == self.cursor
        self.cursor += 1
        self.head += fired
        return fired

    def skip(self, count: int, fired: int) -> None:
        self.cursor += count
        self.head += fired

    def rewind(self) -> None:
        """Set the ``Random`` back to the logical position."""
        at = bisect_right(self.offsets, self.cursor) - 1
        self.rng.setstate(self.states[at])
        for _ in range(self.cursor - self.offsets[at]):
            self.rng.random()


#: Draws between two stream states a :class:`_Lookahead` keeps.
_CHECKPOINT = 4096


def _positive(name: str, value: int) -> int:
    if value <= 0:
        raise FaultError(f"{name} must be positive, got {value}")
    return value
