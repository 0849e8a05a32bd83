"""Priority assignment and schedulability analysis for periodic CNN tasks.

The IAU gives four fixed-priority slots; *which* task gets which slot is a
software decision.  For periodic workloads the classic answer is
rate-monotonic assignment (shorter period => higher priority), and the
Liu & Layland utilisation bound plus response-time analysis predict whether
deadlines will hold before running a single simulation — which the tests
then confirm against the simulator.

The response-time analysis is adapted to INCA's pre-emption granularity:
a lower-priority task adds *blocking* of up to its static worst-case
interrupt response latency — the longest gap between switch opportunities
plus the backup paid at its end (:func:`repro.verify.wcirl.wcirl_bound`) —
because the accelerator switches only at virtual instructions.  The
recovery and re-fetch a preempted task pays when it resumes are not
charged, so the response of every task below the top priority can still
exceed the analysis by that per-preemption cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.compile import CompiledNetwork
from repro.errors import SchedulerError
from repro.verify.engine import layer_table
from repro.verify.wcirl import wcirl_bound


@dataclass(frozen=True)
class PeriodicTask:
    """One periodic inference workload."""

    name: str
    compiled: CompiledNetwork
    period_cycles: int
    execution_cycles: int

    def __post_init__(self) -> None:
        if self.period_cycles <= 0:
            raise SchedulerError(f"task {self.name!r}: period must be positive")
        if self.execution_cycles <= 0:
            raise SchedulerError(f"task {self.name!r}: execution time must be positive")

    @property
    def utilisation(self) -> float:
        return self.execution_cycles / self.period_cycles


def rate_monotonic_order(tasks: list[PeriodicTask]) -> list[PeriodicTask]:
    """Shorter period => higher priority (lower slot index)."""
    return sorted(tasks, key=lambda task: task.period_cycles)


def total_utilisation(tasks: list[PeriodicTask]) -> float:
    return sum(task.utilisation for task in tasks)


def liu_layland_bound(count: int) -> float:
    """The n(2^(1/n) - 1) sufficient schedulability bound."""
    if count <= 0:
        raise SchedulerError("need at least one task")
    return count * (2.0 ** (1.0 / count) - 1.0)


def worst_blocking_cycles(compiled: CompiledNetwork) -> int:
    """Longest a higher-priority arrival can wait for one network under the
    VI method to reach a switch opportunity and back up: the static WCIRL of
    its ``vi`` program."""
    program = compiled.program_for("vi")
    return wcirl_bound(program, compiled.config, layer_table(compiled)).worst_response_cycles


@dataclass(frozen=True)
class ResponseTimeResult:
    """Response-time analysis outcome for one task."""

    name: str
    response_cycles: int
    deadline_cycles: int

    @property
    def schedulable(self) -> bool:
        return self.response_cycles <= self.deadline_cycles


def response_time_analysis(
    tasks: list[PeriodicTask], max_iterations: int = 100
) -> list[ResponseTimeResult]:
    """Classic fixed-priority response-time iteration with VI blocking.

    ``tasks`` must already be in priority order (index 0 highest).  Deadline
    is the period (implicit-deadline model).
    """
    if len(tasks) > 4:
        raise SchedulerError("the IAU has four task slots")
    results = []
    for index, task in enumerate(tasks):
        higher = tasks[:index]
        lower = tasks[index + 1 :]
        blocking = max(
            (worst_blocking_cycles(candidate.compiled) for candidate in lower),
            default=0,
        )
        response = task.execution_cycles + blocking
        for _ in range(max_iterations):
            interference = sum(
                -(-response // other.period_cycles) * other.execution_cycles
                for other in higher
            )
            updated = task.execution_cycles + blocking + interference
            if updated == response:
                break
            response = updated
            if response > 100 * task.period_cycles:
                break  # clearly unschedulable; stop diverging
        results.append(
            ResponseTimeResult(
                name=task.name,
                response_cycles=response,
                deadline_cycles=task.period_cycles,
            )
        )
    return results


def is_schedulable(tasks: list[PeriodicTask]) -> bool:
    """Rate-monotonic order + response-time analysis verdict."""
    ordered = rate_monotonic_order(tasks)
    return all(result.schedulable for result in response_time_analysis(ordered))
