"""Farm-level serving metrics: latency percentiles and SLO attainment.

Latency here is *end-to-end*: from the job's arrival at the farm (traffic
time) to its measured completion on a node (simulated time), so queueing
at the dispatcher, queueing at the node, pre-emption, and VI overhead all
count.  Attainment checks that latency against the job's SLO class
deadline.  Percentiles use the nearest-rank definition — exact on small
counts, no interpolation surprises.

Two accounting extensions feed the resilience layer:

* **estimate error** — when the caller supplies the planning estimates,
  each class reports its plan-vs-measured residency delta
  (``measured service cycles - planned estimate``, signed; mean and p99),
  which is exactly the error the feedback scheduler corrects for;
* **shedding** — jobs a criticality mode switch dropped are counted per
  class and against attainment (a shed job is accounted, never lost, but
  it did not meet its SLO).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.analysis.tables import format_table
from repro.errors import SchedulerError
from repro.farm.traffic import Job, SloClass


@dataclass(frozen=True)
class JobOutcome:
    """Arrival joined with its measured completion."""

    job_id: int
    tenant_id: int
    service: int
    node: int
    arrival_cycle: int
    dispatch_cycle: int
    complete_cycle: int

    @property
    def latency_cycles(self) -> int:
        return self.complete_cycle - self.arrival_cycle


def percentile(values: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of a non-empty sequence.

    The rank is ``ceil(N * p / 100)`` computed in exact arithmetic: ``p``
    is taken at its *decimal* face value (``Fraction(str(p))``), so
    ``p=99.9`` means 999/1000 — not the nearest binary float, whose excess
    ~1e-14 would push the rank from 999 to 1000 at N=1000 under float
    multiply-then-ceil.
    """
    if not values:
        raise SchedulerError("percentile of an empty sequence")
    try:
        fraction = Fraction(str(p))
    except (ValueError, ZeroDivisionError):
        raise SchedulerError(f"p must be in (0, 100], got {p}") from None
    if not 0 < fraction <= 100:
        raise SchedulerError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * fraction / 100)
    return ordered[rank - 1]


@dataclass(frozen=True)
class ClassReport:
    """One SLO class's share of the day.

    ``jobs`` counts measured completions; ``shed`` counts jobs a mode
    switch dropped before dispatch.  Both count against attainment.  The
    error fields are plan-vs-measured service-time deltas (signed cycles,
    ``measured - estimate``) and are ``None`` when the caller did not
    supply planning estimates.
    """

    slo: SloClass
    jobs: int
    p50_cycles: int
    p99_cycles: int
    attained: int
    shed: int = 0
    err_mean_cycles: float | None = None
    err_p99_cycles: int | None = None

    @property
    def attainment(self) -> float:
        total = self.jobs + self.shed
        return self.attained / total if total else 1.0


@dataclass(frozen=True)
class FarmReport:
    """Per-class and overall serving quality of one scheduler run."""

    scheduler: str
    classes: tuple[ClassReport, ...]
    total_jobs: int
    makespan_cycles: int
    #: Crashed node workers the serving gateway re-attempted
    #: (``serve_durable`` only; 0 on a clean day and on every other path).
    worker_retries: int = 0
    #: Jobs shed by a criticality mode switch (accounted, not lost).
    total_shed: int = 0

    @property
    def overall_attainment(self) -> float:
        attained = sum(entry.attained for entry in self.classes)
        total = self.total_jobs + self.total_shed
        return attained / total if total else 1.0

    def by_class(self, name: str) -> ClassReport:
        for entry in self.classes:
            if entry.slo.name == name:
                return entry
        raise SchedulerError(f"no SLO class named {name!r}")

    def format(self) -> str:
        with_errors = any(
            entry.err_mean_cycles is not None for entry in self.classes
        )
        header = ["class", "jobs", "p50 cyc", "p99 cyc", "deadline"]
        if with_errors:
            header += ["mean err", "p99 err"]
        if self.total_shed:
            header.append("shed")
        header.append("SLO attained")
        rows = []
        for entry in self.classes:
            row = [
                entry.slo.name,
                entry.jobs,
                entry.p50_cycles if entry.jobs else "-",
                entry.p99_cycles if entry.jobs else "-",
                entry.slo.deadline_cycles,
            ]
            if with_errors:
                row += (
                    [f"{entry.err_mean_cycles:+.0f}", f"{entry.err_p99_cycles:+d}"]
                    if entry.err_mean_cycles is not None
                    else ["-", "-"]
                )
            if self.total_shed:
                row.append(entry.shed)
            row.append(f"{100 * entry.attainment:.2f}%")
            rows.append(row)
        overall = ["overall", self.total_jobs, "", "", ""]
        if with_errors:
            overall += ["", ""]
        if self.total_shed:
            overall.append(self.total_shed)
        overall.append(f"{100 * self.overall_attainment:.2f}%")
        rows.append(overall)
        table = format_table(
            header,
            rows,
            title=f"farm serving report — scheduler={self.scheduler}",
        )
        if self.worker_retries:
            table += f"\nworker retries: {self.worker_retries}"
        return table


def build_report(
    scheduler: str,
    outcomes: Sequence[JobOutcome],
    slos: Sequence[SloClass],
    *,
    worker_retries: int = 0,
    estimates: Sequence[Sequence[int]] | None = None,
    shed: Sequence[Job] = (),
) -> FarmReport:
    """Aggregate measured outcomes into the per-class report.

    ``slos`` is indexed by service (service ``k`` belongs to class
    ``slos[k]``); distinct services sharing one class object aggregate
    together.  ``estimates[node][service]`` (the scheduler's planning
    view) enables the plan-vs-measured error columns; ``shed`` lists jobs
    a mode switch dropped, counted per class against attainment.
    """
    by_class: dict[str, list[JobOutcome]] = {}
    class_of: dict[str, SloClass] = {}
    shed_by_class: dict[str, int] = {}
    for outcome in outcomes:
        slo = slos[outcome.service]
        by_class.setdefault(slo.name, []).append(outcome)
        class_of[slo.name] = slo
    for job in shed:
        slo = slos[job.service]
        class_of[slo.name] = slo
        by_class.setdefault(slo.name, [])
        shed_by_class[slo.name] = shed_by_class.get(slo.name, 0) + 1
    classes = []
    for name in sorted(by_class, key=lambda n: class_of[n].rank):
        slo = class_of[name]
        members = by_class[name]
        latencies = [outcome.latency_cycles for outcome in members]
        attained = sum(1 for lat in latencies if lat <= slo.deadline_cycles)
        err_mean: float | None = None
        err_p99: int | None = None
        if estimates is not None and members:
            errors = [
                (o.complete_cycle - o.dispatch_cycle)
                - estimates[o.node][o.service]
                for o in members
            ]
            err_mean = sum(errors) / len(errors)
            err_p99 = percentile(errors, 99)
        classes.append(
            ClassReport(
                slo=slo,
                jobs=len(latencies),
                p50_cycles=percentile(latencies, 50) if latencies else 0,
                p99_cycles=percentile(latencies, 99) if latencies else 0,
                attained=attained,
                shed=shed_by_class.get(name, 0),
                err_mean_cycles=err_mean,
                err_p99_cycles=err_p99,
            )
        )
    makespan = max((o.complete_cycle for o in outcomes), default=0)
    return FarmReport(
        scheduler=scheduler,
        classes=tuple(classes),
        total_jobs=len(outcomes),
        makespan_cycles=makespan,
        worker_retries=worker_retries,
        total_shed=len(shed),
    )


def join_outcomes(
    jobs: Sequence[Job], results: Sequence, *, shed: Sequence[Job] = ()
) -> list[JobOutcome]:
    """Join arrivals with node results by ``job_id`` (exactly once each).

    Every arrival must be accounted for exactly once — as a measured
    completion in ``results`` or as a mode-switch victim in ``shed``.
    Duplicate completions (e.g. both copies of a hedged dispatch reaching
    the join without first-result-wins dedup) raise ``SchedulerError``.
    """
    arrivals = {job.job_id: job for job in jobs}
    shed_ids = set()
    for job in shed:
        if job.job_id in shed_ids:
            raise SchedulerError(f"job {job.job_id} shed twice")
        if job.job_id not in arrivals:
            raise SchedulerError(f"shed record for unknown job {job.job_id}")
        shed_ids.add(job.job_id)
    outcomes: list[JobOutcome] = []
    seen: set[int] = set()
    for result in results:
        if result.job_id in seen:
            raise SchedulerError(f"job {result.job_id} completed twice")
        if result.job_id in shed_ids:
            raise SchedulerError(
                f"job {result.job_id} both shed and completed"
            )
        seen.add(result.job_id)
        job = arrivals.get(result.job_id)
        if job is None:
            raise SchedulerError(f"completion for unknown job {result.job_id}")
        outcomes.append(
            JobOutcome(
                job_id=job.job_id,
                tenant_id=job.tenant_id,
                service=job.service,
                node=result.node,
                arrival_cycle=job.arrival_cycle,
                dispatch_cycle=result.dispatch_cycle,
                complete_cycle=result.complete_cycle,
            )
        )
    if len(outcomes) + len(shed_ids) != len(jobs):
        raise SchedulerError(
            f"{len(jobs)} jobs arrived but {len(outcomes)} completed and "
            f"{len(shed_ids)} were shed"
        )
    outcomes.sort(key=lambda outcome: outcome.job_id)
    return outcomes
