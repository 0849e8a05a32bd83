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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import SchedulerError
from repro.farm.node import Int64s, NodeJobResult
from repro.farm.traffic import Job, SloClass
from repro.tables import format_table


class JobOutcome(NamedTuple):
    """Arrival joined with its measured completion (a tuple: one is made
    per served job)."""

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


class Outcomes(list[JobOutcome]):
    """:func:`join_outcomes`' outcomes, sorted by job id, with ``columns``:
    the same as a ``(7, n)`` int64 array, one row per field (what
    :func:`build_report` reads)."""

    columns: Int64s


_OUTCOME_WIDTH = len(JobOutcome._fields)
_RESULT_WIDTH = len(NodeJobResult._fields)
_job_id = attrgetter("job_id")  # of a Job
_job_fields = [attrgetter(f) for f in ("job_id", "tenant_id", "service", "arrival_cycle")]


def _rank(count: int, p: float) -> int:
    """The 1-based nearest rank ``ceil(count * p / 100)``, in exact
    arithmetic: ``p`` is taken at its *decimal* face value
    (``Fraction(str(p))``), so ``p=99.9`` means 999/1000 — not the nearest
    binary float, whose excess ~1e-14 would push the rank from 999 to 1000
    at ``count=1000`` under float multiply-then-ceil."""
    try:
        fraction = Fraction(str(p))
    except (ValueError, ZeroDivisionError):
        raise SchedulerError(f"p must be in (0, 100], got {p}") from None
    if not 0 < fraction <= 100:
        raise SchedulerError(f"p must be in (0, 100], got {p}")
    return math.ceil(count * fraction / 100)


def percentile(values: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of a non-empty sequence (rank: :func:`_rank`)."""
    if not values:
        raise SchedulerError("percentile of an empty sequence")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def nearest_rank(ordered: np.ndarray, p: float) -> int:
    """:func:`percentile` of a non-empty int64 column already sorted
    ascending (the same rank, :func:`_rank`)."""
    return int(ordered[_rank(len(ordered), p) - 1])


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
    #: Crashed node workers the serving gateway re-attempted (the shipped
    #: paths: ``serve(max_workers=N)``'s private gateway and
    #: ``serve_durable``'s; 0 on a clean day and in process).
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
    outcomes: Sequence[JobOutcome] | Int64s,
    slos: Sequence[SloClass],
    *,
    worker_retries: int = 0,
    estimates: Sequence[Sequence[int]] | None = None,
    shed: Sequence[Job] = (),
) -> FarmReport:
    """Aggregate measured outcomes into the per-class report.

    ``slos`` is indexed by service (service ``k`` belongs to class
    ``slos[k]``); services whose classes share a name aggregate together,
    under the class object of the last outcome (then shed job) of that
    name.  ``estimates[node][service]`` (the scheduler's planning view)
    enables the plan-vs-measured error columns; ``shed`` lists jobs a mode
    switch dropped, counted per class against attainment.  Classes come in
    rank order, equal ranks in the order their names first appear.

    ``outcomes`` are :class:`JobOutcome` rows, read once into int64
    columns, or those columns already (:attr:`Outcomes.columns` of the
    join).  Each class sorts its latencies (and errors) once and takes
    every figure off the sorted column.
    """
    columns = outcomes if isinstance(outcomes, np.ndarray) else np.fromiter(
        chain.from_iterable(outcomes), np.int64, len(outcomes) * _OUTCOME_WIDTH
    ).reshape(-1, _OUTCOME_WIDTH).T
    count = columns.shape[1]
    services = columns[2].copy()
    latencies = columns[6] - columns[4]
    errors: np.ndarray | None = None
    if estimates is not None and count:
        cost = np.asarray(estimates, dtype=np.int64)[columns[3], services]
        errors = columns[6] - columns[5] - cost
    makespan = int(columns[6].max()) if count else 0
    del columns  # freed (when read here): the figures below read only these four
    shed_services = [job.service for job in shed]
    # A class is keyed by name: it opens where its name first appears
    # (outcomes, then shed jobs) and takes the class object of its name's
    # last appearance.  Per service, only its first and last positions can
    # be either.
    present, first, slot = np.unique(services, return_index=True, return_inverse=True)
    last = count - 1 - np.unique(services[::-1], return_index=True)[1]
    appearances = sorted(
        chain(
            zip(present.tolist(), first.tolist()),
            zip(present.tolist(), last.tolist()),
            zip(shed_services, range(count, count + len(shed))),
        ),
        key=itemgetter(1),
    )
    class_of: dict[str, SloClass] = {}
    for service, _ in appearances:
        class_of[slos[service].name] = slos[service]
    shed_by_class = Counter(slos[service].name for service in shed_services)
    names = sorted(class_of, key=lambda n: class_of[n].rank)
    # Each outcome's class, as its index in ``names``.
    class_at = np.array(
        [names.index(slos[service].name) for service in present.tolist()], np.intp
    )[slot]
    classes = []
    for index, name in enumerate(names):
        slo = class_of[name]
        member = class_at == index
        ordered = np.sort(latencies[member])
        jobs = len(ordered)
        err_mean: float | None = None
        err_p99: int | None = None
        if errors is not None and jobs:
            delta = errors[member]
            err_mean = sum(delta.tolist()) / jobs
            err_p99 = nearest_rank(np.sort(delta), 99)
        classes.append(
            ClassReport(
                slo=slo,
                jobs=jobs,
                p50_cycles=nearest_rank(ordered, 50) if jobs else 0,
                p99_cycles=nearest_rank(ordered, 99) if jobs else 0,
                attained=int(np.searchsorted(ordered, slo.deadline_cycles, "right")),
                shed=shed_by_class[name],
                err_mean_cycles=err_mean,
                err_p99_cycles=err_p99,
            )
        )
    return FarmReport(
        scheduler=scheduler,
        classes=tuple(classes),
        total_jobs=count,
        makespan_cycles=makespan,
        worker_retries=worker_retries,
        total_shed=len(shed),
    )


def join_outcomes(
    jobs: Sequence[Job],
    results: Iterable[tuple[int, int, int, int, int, int]] | Int64s,
    *,
    shed: Sequence[Job] = (),
) -> Outcomes:
    """Join arrivals with node results by ``job_id`` (exactly once each).

    ``results`` are :class:`~repro.farm.node.NodeJobResult` rows from any
    backend (in-process, gateway), or the same rows as one int64 ``(n, 6)``
    array (a one-epoch day's: :func:`~repro.farm.node.answer_plan` and
    :func:`~repro.farm.node.results_array`).
    Every arrival must be accounted for exactly once — as a measured
    completion in ``results`` or as a mode-switch victim in ``shed``.
    Duplicate completions (e.g. both copies of a hedged dispatch reaching
    the join without first-result-wins dedup) raise ``SchedulerError``,
    naming the first offending row.  Outcomes come sorted by ``job_id``.

    Works on int64 columns: the arrivals are read once, sorting the result
    ids checks exactly-once and orders the outcomes, and a search among
    the sorted arrival ids finds each result's arrival.  The outcomes keep
    the columns they were built from (:attr:`Outcomes.columns`).
    """
    rows = (
        np.asarray(results, np.int64)
        if isinstance(results, np.ndarray)
        else np.fromiter(chain.from_iterable(results), np.int64)
    ).reshape(-1, _RESULT_WIDTH)
    count = len(jobs)
    # Outcome rows 0, 1, 2 and 4: the arrivals' own fields.
    arrivals = np.array(
        [np.fromiter(map(field, jobs), np.int64, count) for field in _job_fields]
    )
    by_id = np.argsort(arrivals[0])
    arrival_ids = arrivals[0][by_id]  # sorted
    shed_ids = np.fromiter(map(_job_id, shed), np.int64, len(shed))
    shed_twice = _repeats(shed_ids, np.argsort(shed_ids, kind="stable"))
    bad = shed_twice | ~np.isin(shed_ids, arrival_ids)
    if bad.any():
        index = int(bad.argmax())
        if shed_twice[index]:
            raise SchedulerError(f"job {shed_ids[index]} shed twice")
        raise SchedulerError(f"shed record for unknown job {shed_ids[index]}")
    ids = rows[:, 0]
    order = np.argsort(ids, kind="stable")
    places = np.searchsorted(arrival_ids, ids[order])  # of each id, in id order
    known = np.zeros(len(ids), bool)
    known[order] = (arrival_ids.take(places, mode="clip") == ids[order]) if count else False
    twice = _repeats(ids, order)
    both = np.isin(ids, shed_ids)
    bad = twice | both | ~known
    if bad.any():
        index = int(bad.argmax())
        if twice[index]:
            raise SchedulerError(f"job {ids[index]} completed twice")
        if both[index]:
            raise SchedulerError(f"job {ids[index]} both shed and completed")
        raise SchedulerError(f"completion for unknown job {ids[index]}")
    if len(rows) + len(shed_ids) != count:
        raise SchedulerError(
            f"{count} jobs arrived but {len(rows)} completed and "
            f"{len(shed_ids)} were shed"
        )
    # Every id arrived exactly once (the checks above), so each result id
    # has its own place among the sorted arrival ids.
    places = by_id[places]
    columns = np.empty((_OUTCOME_WIDTH, len(order)), np.int64)
    columns[[0, 1, 2, 4]] = arrivals[:, places]
    columns[[3, 5, 6]] = rows[order][:, [1, 3, 5]].T
    del rows, ids, arrivals  # freed before the outcomes exist: a lower peak
    # An outcome shares its arrival's field objects rather than new ints.
    arrived = list(map(jobs.__getitem__, places.tolist()))
    job_id, tenant_id, service, arrival_cycle = (map(f, arrived) for f in _job_fields)
    nodes, dispatched, completed = columns[[3, 5, 6]].tolist()
    fields = zip(job_id, tenant_id, service, nodes, arrival_cycle, dispatched, completed)
    # C level: one JobOutcome per row, no Python __new__.
    outcomes = Outcomes(map(tuple.__new__, repeat(JobOutcome), fields))
    outcomes.columns = columns
    return outcomes


def _repeats(ids: Int64s, order: npt.NDArray[np.intp]) -> npt.NDArray[np.bool_]:
    """Which entries repeat an id that appears earlier in ``ids``, given
    ``order``, the stable argsort of ``ids``."""
    ordered = ids[order]
    mask = np.zeros(len(ids), bool)
    mask[order[1:][ordered[1:] == ordered[:-1]]] = True
    return mask
