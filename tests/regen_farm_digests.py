"""Regenerate ``tests/data/farm_serve_digests.json``: the sha256 of what
each serving path returns on the small tier-1 days the serving-loop suite
pins — outcomes, dispatch log, report, and for ``serve_resilient`` the
shed list, the resilience ledger and the ``farm.bus`` event stream.

Run it on the commit whose results are the reference — *before* a change
to the serving paths, not after — from the repository root::

    PYTHONPATH=<reference checkout>/src python tests/regen_farm_digests.py

``tests/test_farm_loop.py`` recomputes the same cases and compares.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

import repro  # noqa: E402
from repro.analysis.design_space import default_design_grid  # noqa: E402
from repro.farm import (  # noqa: E402
    ChaosAction,
    ChaosPlan,
    Farm,
    FcfsScheduler,
    FeedbackScheduler,
    PredictiveScheduler,
    ResilienceConfig,
    ServiceSpec,
    SloClass,
    StaticPartitionScheduler,
    TenantSpec,
    TrafficSpec,
    generate_jobs,
)
from repro.qos import ModeSwitchPolicy  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "farm_serve_digests.json"

SERVICES = (
    ServiceSpec("detect", "tiny_conv", SloClass("gold", 0, 8.0, 400_000)),
    ServiceSpec("track", "tiny_residual", SloClass("silver", 1, 3.0, 1_200_000)),
    ServiceSpec("embed", "tiny_cnn", SloClass("bronze", 2, 1.0, 4_000_000)),
)
SCHEDULERS: dict[str, Callable[[], Any]] = {
    "fcfs": FcfsScheduler,
    "static-partition": StaticPartitionScheduler,
    "predictive": PredictiveScheduler,
    "feedback+predictive": FeedbackScheduler,
}
SEEDS = (0, 1, 2)
PATTERNS = ("poisson", "bursty", "diurnal")
EPOCH = 200_000


def static_day(seed: int) -> list:
    """Six tenants over three services on the four-node grid, ~200 jobs."""
    tenants = tuple(
        TenantSpec(
            index,
            service=index % len(SERVICES),
            mean_interarrival_cycles=30_000,
            pattern=PATTERNS[index % len(PATTERNS)],
        )
        for index in range(6)
    )
    return generate_jobs(
        TrafficSpec(tenants=tenants, duration_cycles=1_000_000, seed=seed)
    )


def static_farm(scheduler: str) -> Farm:
    return Farm(default_design_grid(), SERVICES, SCHEDULERS[scheduler]())


def resilient_day() -> list:
    """Three tenants, one per class, on three nodes."""
    tenants = (
        TenantSpec(0, service=0, mean_interarrival_cycles=60_000),
        TenantSpec(1, service=1, mean_interarrival_cycles=90_000),
        TenantSpec(2, service=2, mean_interarrival_cycles=120_000, pattern="bursty"),
    )
    return generate_jobs(
        TrafficSpec(tenants=tenants, duration_cycles=2_000_000, seed=11)
    )


def bronze_tail_day() -> list:
    """Gold plus a long tail of bronze, so a mode switch has work to shed."""
    tenants = (
        TenantSpec(0, service=0, mean_interarrival_cycles=80_000),
        TenantSpec(1, service=2, mean_interarrival_cycles=50_000),
    )
    return generate_jobs(
        TrafficSpec(tenants=tenants, duration_cycles=3_000_000, seed=3)
    )


def feedback_farm() -> Farm:
    return Farm(default_design_grid()[:3], SERVICES, FeedbackScheduler())


def kills(*at: tuple[int, int]) -> ChaosPlan:
    return ChaosPlan(
        actions=tuple(ChaosAction("kill_node", node, at_cycle=cycle) for node, cycle in at)
    )


def overloaded_day() -> list:
    """Enough backlog that a dead node strands more than two epochs of
    hedges can cover: the rest must migrate."""
    tenants = tuple(
        TenantSpec(
            index,
            service=index,
            mean_interarrival_cycles=16_000,
            pattern=PATTERNS[index],
        )
        for index in range(3)
    )
    return generate_jobs(
        TrafficSpec(tenants=tenants, duration_cycles=1_500_000, seed=5)
    )


Scenario = tuple[Callable[[], Farm], list, ResilienceConfig, "ChaosPlan | None"]


def resilient_scenarios() -> dict[str, Scenario]:
    """name -> (farm factory, jobs, config, chaos) of every pinned
    ``serve_resilient`` day; each runs on a fresh farm."""
    day = resilient_day()
    hang = ChaosPlan(
        actions=(ChaosAction("kill_node", 2, at_cycle=600_000, heal_cycle=1_000_000),)
    )
    return {
        "no-chaos": (feedback_farm, day, ResilienceConfig(epoch_cycles=EPOCH), None),
        "two-kills": (
            feedback_farm,
            day,
            ResilienceConfig(epoch_cycles=EPOCH),
            kills((1, 500_000), (2, 900_000)),
        ),
        "transient-hang": (
            feedback_farm,
            day,
            ResilienceConfig(epoch_cycles=EPOCH, dead_after_cycles=1_200_000),
            hang,
        ),
        "shed-bronze": (
            feedback_farm,
            bronze_tail_day(),
            ResilienceConfig(
                epoch_cycles=EPOCH,
                mode_switch=ModeSwitchPolicy(capacity_threshold=0.75, shed_min_rank=2),
            ),
            kills((1, 300_000), (2, 400_000)),
        ),
        "no-hedge": (
            feedback_farm,
            day,
            ResilienceConfig(epoch_cycles=EPOCH, hedge=False),
            kills((2, 600_000)),
        ),
        "hedge-then-migrate": (
            lambda: static_farm("predictive"),
            overloaded_day(),
            ResilienceConfig(epoch_cycles=100_000, dead_after_cycles=250_000),
            kills((1, 700_000), (3, 1_000_000)),
        ),
    }


def sha(*parts: Any) -> str:
    """One digest over the ``repr`` of every part (dataclass reprs are
    field-complete and carry no addresses)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def static_digest(result: Any) -> str:
    dispatches = sorted(result.dispatches, key=lambda d: d.job.job_id)
    return sha(result.outcomes, dispatches, result.report)


def resilient_digest(farm: Farm, result: Any) -> str:
    events = [json.dumps(event.to_dict(), sort_keys=True) for event in farm.bus.events]
    return sha(
        result.outcomes,
        tuple(result.shed),
        tuple(result.dispatches),
        result.report,
        result.resilience,
        events,
    )


def digests() -> dict[str, str]:
    pinned: dict[str, str] = {}
    for seed in SEEDS:
        jobs = static_day(seed)
        for scheduler in SCHEDULERS:
            pinned[f"serve|{scheduler}|seed={seed}"] = static_digest(
                static_farm(scheduler).serve(jobs)
            )
    for name, (make_farm, jobs, config, chaos) in resilient_scenarios().items():
        farm = make_farm()
        result = farm.serve_resilient(jobs, resilience=config, chaos=chaos)
        pinned[f"serve_resilient|{name}"] = resilient_digest(farm, result)
    return pinned


def main() -> None:
    checkout = Path(repro.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    pinned = digests()
    FIXTURE.write_text(json.dumps({"commit": commit, "digests": pinned}, indent=1) + "\n")
    print(f"{len(pinned)} digests of {checkout} @ {commit[:12]} -> {FIXTURE}")


if __name__ == "__main__":
    main()
