"""Scheduling statistics: response latencies, deadlines, degradation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import AcceleratorConfig
from repro.iau.context import JobRecord


@dataclass(frozen=True)
class TaskStats:
    """Aggregate per-task job statistics (all values in cycles)."""

    task_id: int
    jobs: int
    mean_response: float
    max_response: int
    mean_turnaround: float
    max_turnaround: int
    deadline_cycles: int | None = None
    deadline_misses: int = 0

    def mean_response_us(self, config: AcceleratorConfig) -> float:
        return config.clock.cycles_to_us(self.mean_response)


def summarize_jobs(
    task_id: int,
    jobs: list[JobRecord],
    deadline_cycles: int | None = None,
) -> TaskStats:
    """Summarise a task's completed jobs; optionally check a deadline."""
    if not jobs:
        raise ValueError(f"task {task_id} completed no jobs")
    responses = [job.response_cycles for job in jobs]
    turnarounds = [job.turnaround_cycles for job in jobs]
    misses = 0
    if deadline_cycles is not None:
        misses = sum(1 for turnaround in turnarounds if turnaround > deadline_cycles)
    return TaskStats(
        task_id=task_id,
        jobs=len(jobs),
        mean_response=sum(responses) / len(responses),
        max_response=max(responses),
        mean_turnaround=sum(turnarounds) / len(turnarounds),
        max_turnaround=max(turnarounds),
        deadline_cycles=deadline_cycles,
        deadline_misses=misses,
    )


def degradation_percent(baseline_cycles: int, observed_cycles: int) -> float:
    """Slowdown of ``observed`` relative to ``baseline``, in percent."""
    if baseline_cycles <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (observed_cycles - baseline_cycles) / baseline_cycles
