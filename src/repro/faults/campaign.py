"""Seeded fault campaigns: many runs, one golden reference, typed verdicts.

A *campaign* executes a scenario ``N`` times, each with a fresh
:class:`~repro.faults.plan.FaultPlan` seeded ``base_seed + i``, and
classifies every run against a fault-free golden execution:

* ``SURVIVED`` — outputs match golden and nothing needed detecting (the
  faults were absorbed: stalls, dropped interrupt glitches, flips that
  were overwritten before any read);
* ``RECOVERED`` — outputs match golden *and* the tolerance machinery
  visibly acted (ECC corrections, checkpoint rollbacks, watchdog hits);
* ``DETECTED_FATAL`` — the run raised a typed :class:`~repro.errors.IncaError`
  (uncorrectable ECC, checkpoint retry budget exhausted);
* ``SILENT_CORRUPTION`` — outputs differ from golden (or jobs vanished)
  with no detection and no intentional degradation.  A healthy tolerance
  stack reports **zero** of these.

The scenario is any callable ``scenario(plan) -> ScenarioRun``; use
:func:`make_preemption_scenario` for the stock two-task preemption workload
whose interrupt lands on a Vir_SAVE (so the checkpoint path is exercised).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import CampaignError, IncaError
from repro.faults.plan import FaultPlan, FaultSite
from repro.obs.config import ObsConfig
from repro.obs.metrics import Metrics
from repro.qos.monitor import scan_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.compile import CompiledNetwork
    from repro.hw.config import AcceleratorConfig
    from repro.runtime.system import MultiTaskSystem

#: Event kinds that count as the tolerance machinery *acting*.
_DETECTION_KINDS = frozenset({"fault_detect", "fault_recover", "deadline_miss"})


class RunOutcome(enum.Enum):
    """Verdict for one campaign run, against the golden reference."""

    SURVIVED = "survived"
    RECOVERED = "recovered"
    DETECTED_FATAL = "detected_fatal"
    SILENT_CORRUPTION = "silent_corruption"


@dataclass
class ScenarioRun:
    """What one scenario execution reports back to the campaign."""

    #: Named output arrays (compared element-wise against golden).
    outputs: dict[str, np.ndarray]
    #: Completed-job counts per name (missing jobs need an explanation).
    jobs: dict[str, int]
    final_cycle: int
    #: Recorded bus events (kind values are scanned for detection evidence).
    events: list[Any] = field(default_factory=list)
    #: Requests intentionally shed by the degradation policy.
    shed: int = 0

    @classmethod
    def from_system(
        cls, system: "MultiTaskSystem", outputs: dict[str, np.ndarray]
    ) -> "ScenarioRun":
        """Distill a finished :class:`~repro.runtime.system.MultiTaskSystem`."""
        return cls(
            outputs=outputs,
            jobs={str(task_id): len(system.jobs(task_id)) for task_id in system._task_ids},
            final_cycle=system.iau.clock,
            events=list(system.bus.events) if system.bus is not None else [],
            shed=sum(system.shed.values()),
        )

    def detections(self) -> int:
        return sum(1 for event in self.events if event.kind.value in _DETECTION_KINDS)


@dataclass
class RunReport:
    """One classified campaign run."""

    seed: int
    outcome: RunOutcome
    injected: int
    sites: tuple[str, ...]
    #: Extra cycles vs golden, for RECOVERED runs (the recovery window).
    recovery_latency_cycles: int | None
    detail: str = ""
    #: Invariant-monitor findings from replaying the run's event stream
    #: (empty for a run whose telemetry is self-consistent).
    invariant_violations: tuple[str, ...] = ()


@dataclass
class CampaignReport:
    """Aggregate verdicts for a whole campaign."""

    golden_cycle: int
    runs: list[RunReport]

    def count(self, outcome: RunOutcome) -> int:
        return sum(1 for run in self.runs if run.outcome is outcome)

    def rate(self, outcome: RunOutcome) -> float:
        return self.count(outcome) / len(self.runs)

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def total_injected(self) -> int:
        return sum(run.injected for run in self.runs)

    @property
    def total_invariant_violations(self) -> int:
        return sum(len(run.invariant_violations) for run in self.runs)

    def sites_covered(self) -> set[FaultSite]:
        covered: set[FaultSite] = set()
        for run in self.runs:
            covered.update(FaultSite(site) for site in run.sites)
        return covered

    def mean_recovery_latency_cycles(self) -> float | None:
        """Mean extra cycles vs golden across RECOVERED runs (None if none)."""
        latencies = [
            run.recovery_latency_cycles
            for run in self.runs
            if run.outcome is RunOutcome.RECOVERED
            and run.recovery_latency_cycles is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def to_metrics(self, metrics: Metrics) -> None:
        """Publish the campaign verdicts as ``repro.obs`` counters."""
        for outcome in RunOutcome:
            metrics.counter("campaign_runs", outcome=outcome.value).inc(
                self.count(outcome)
            )
        site_counts: dict[str, int] = {}
        for run in self.runs:
            for site in run.sites:
                site_counts[site] = site_counts.get(site, 0) + 1
        for site, count in site_counts.items():
            metrics.counter("campaign_runs_with_site", site=site).inc(count)
        latency = self.mean_recovery_latency_cycles()
        if latency is not None:
            metrics.gauge("campaign_mean_recovery_latency_cycles").set(latency)

    def format(self) -> str:
        lines = [
            f"fault campaign: {self.num_runs} runs, "
            f"{self.total_injected} faults injected "
            f"across {len(self.sites_covered())} sites "
            f"(golden = {self.golden_cycle} cycles)",
        ]
        for outcome in RunOutcome:
            count = self.count(outcome)
            lines.append(
                f"  {outcome.value:<18} {count:>5}  ({100.0 * count / self.num_runs:5.1f}%)"
            )
        latency = self.mean_recovery_latency_cycles()
        if latency is not None:
            lines.append(f"  mean recovery latency: {latency:.0f} cycles")
        lines.append(
            f"  invariant violations: {self.total_invariant_violations}"
        )
        site_counts: dict[str, int] = {}
        for run in self.runs:
            for site in run.sites:
                site_counts[site] = site_counts.get(site, 0) + 1
        for site, count in sorted(site_counts.items()):
            lines.append(f"  site {site:<24} hit in {count} run(s)")
        return "\n".join(lines)


def default_rates() -> dict[FaultSite, float]:
    """Per-opportunity rates covering six sites at campaign-friendly odds.

    The ROS sites are deliberately excluded: a dropped message removes a
    job from the workload, which is degradation by construction rather
    than a corruption-detection question; exercise them with a dedicated
    scenario (see ``tests/test_fault_injection.py``).
    """
    return {
        FaultSite.DDR_BIT_FLIP: 0.01,
        FaultSite.DDR_STALL: 0.01,
        FaultSite.IAU_DROP_PREEMPT: 0.25,
        FaultSite.IAU_SPURIOUS_PREEMPT: 0.01,
        FaultSite.CHECKPOINT_CORRUPT: 0.35,
        FaultSite.JOB_OVERRUN: 0.1,
    }


def make_preemption_scenario(
    pair: "Sequence[CompiledNetwork] | None" = None,
    config: "AcceleratorConfig | None" = None,
    *,
    arrival_cycle: int = 8_000,
    deadline_cycles: int = 120_000,
    functional: bool = True,
) -> Callable[[FaultPlan | None], ScenarioRun]:
    """Stock campaign workload: low-priority job preempted at a Vir_SAVE.

    Task 1 (low priority) starts at cycle 0; task 0 arrives at
    ``arrival_cycle``, chosen so the interrupt lands on a VIR_SAVE and the
    checkpoint-CRC path is exercised.  Compilation happens once; DDR region
    contents are snapshotted and restored between runs so injected
    corruption can never leak across seeds.

    ``functional=False`` builds the timing-only variant (no array compute,
    empty ``outputs``) — the regime where the armed batched fast path can
    engage.
    """
    from repro.hw.config import AcceleratorConfig
    from repro.runtime.system import MultiTaskSystem, compile_tasks
    from repro.zoo import build_tiny_cnn, build_tiny_residual

    if pair is None:
        if config is None:
            config = AcceleratorConfig.worked_example()
        pair = compile_tasks(
            [build_tiny_cnn(), build_tiny_residual()], config, weights="random", seed=4
        )
    else:
        config = pair[0].config
    pristine = [
        {region.name: region.array.copy() for region in compiled.layout.ddr.regions()}
        for compiled in pair
    ]
    rng = np.random.default_rng(7)
    inputs = [
        rng.integers(
            -8, 8, size=compiled.layout.ddr.region(compiled.input_region).array.shape
        ).astype(np.int8)
        for compiled in pair
    ]

    def scenario(plan: FaultPlan | None) -> ScenarioRun:
        for compiled, regions in zip(pair, pristine):
            for region in compiled.layout.ddr.regions():
                region.array[...] = regions[region.name]
        system = MultiTaskSystem(
            config,
            iau_mode="virtual",
            obs=ObsConfig(events=True, functional=functional),
            faults=plan,
        )
        system.add_task(0, pair[0])
        system.add_task(1, pair[1], deadline_cycles=deadline_cycles)
        for compiled, data in zip(pair, inputs):
            compiled.set_input(data)
        system.submit(1, 0)
        system.submit(0, arrival_cycle)
        system.run()
        outputs = (
            {
                f"task{index}": compiled.get_output()
                for index, compiled in enumerate(pair)
            }
            if functional
            else {}
        )
        return ScenarioRun.from_system(system, outputs)

    return scenario


def run_campaign(
    scenario: Callable[[FaultPlan | None], ScenarioRun],
    *,
    runs: int,
    rates: Mapping[FaultSite | str, float] | None = None,
    base_seed: int = 0,
    metrics: Metrics | None = None,
    invariants: bool = True,
    **plan_kwargs: Any,
) -> CampaignReport:
    """Execute ``runs`` seeded fault runs and classify each against golden.

    ``plan_kwargs`` are forwarded to every :class:`FaultPlan` (stall sizes,
    retry budgets, ``uncorrectable_share``...).  Pass ``metrics`` to publish
    the verdict counters through :mod:`repro.obs`.

    With ``invariants`` (the default) every completed run's event stream is
    additionally replayed through the :mod:`repro.qos` invariant monitor;
    findings land on each run's ``invariant_violations`` without changing
    the run's outcome classification.
    """
    if runs < 1:
        raise CampaignError(f"a campaign needs at least 1 run, got {runs}")
    effective_rates = dict(rates) if rates is not None else default_rates()
    golden = scenario(None)
    reports: list[RunReport] = []
    for index in range(runs):
        plan = FaultPlan(seed=base_seed + index, rates=effective_rates, **plan_kwargs)
        try:
            result = scenario(plan)
        except IncaError as exc:
            reports.append(
                RunReport(
                    seed=plan.seed,
                    outcome=RunOutcome.DETECTED_FATAL,
                    injected=plan.count(),
                    sites=tuple(sorted(site.value for site in plan.sites_injected())),
                    recovery_latency_cycles=None,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        classified = _classify(golden, result, plan)
        if invariants:
            classified.invariant_violations = tuple(
                str(violation) for violation in scan_events(result.events)
            )
        reports.append(classified)
    report = CampaignReport(golden_cycle=golden.final_cycle, runs=reports)
    if metrics is not None:
        report.to_metrics(metrics)
    return report


def _classify(golden: ScenarioRun, result: ScenarioRun, plan: FaultPlan) -> RunReport:
    sites = tuple(sorted(site.value for site in plan.sites_injected()))
    detections = result.detections()

    def report(
        outcome: RunOutcome, detail: str = "", latency: int | None = None
    ) -> RunReport:
        return RunReport(
            seed=plan.seed,
            outcome=outcome,
            injected=plan.count(),
            sites=sites,
            recovery_latency_cycles=latency,
            detail=detail,
        )

    missing = [name for name in golden.outputs if name not in result.outputs]
    short = [
        name
        for name, count in golden.jobs.items()
        if result.jobs.get(name, 0) < count
    ]
    if missing or short:
        if result.shed > 0 or plan.count(FaultSite.ROS_DROP) > 0:
            # The system intentionally dropped work to stay healthy.
            return report(
                RunOutcome.RECOVERED,
                detail=f"degraded: shed={result.shed}, missing={missing or short}",
                latency=max(0, result.final_cycle - golden.final_cycle),
            )
        return report(
            RunOutcome.SILENT_CORRUPTION,
            detail=f"jobs vanished without explanation: {missing or short}",
        )

    mismatched = [
        name
        for name, expected in golden.outputs.items()
        if not np.array_equal(expected, result.outputs[name])
    ]
    if mismatched:
        return report(
            RunOutcome.SILENT_CORRUPTION,
            detail=f"outputs differ from golden: {mismatched}",
        )
    if plan.count() == 0:
        return report(RunOutcome.SURVIVED, detail="no faults fired")
    if detections:
        return report(
            RunOutcome.RECOVERED,
            detail=f"{detections} detection/recovery event(s)",
            latency=max(0, result.final_cycle - golden.final_cycle),
        )
    return report(RunOutcome.SURVIVED, detail="faults absorbed without detection")
