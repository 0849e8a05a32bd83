"""Fast-path speedup guards: the horizon-batched dispatch loop must beat the
step-wise loop by >= 5x disarmed, >= 8x with a live FaultPlan, and >= 5x
under the ROS executor (the whole two-agent E10 mission, CPU-side DSLAM
included).

The workload is ResNet-scale (tens of thousands of instructions per job)
with periodic overlapping arrivals, exactly the regime the fast path was
built for: long uninterruptible stretches punctuated by switch points.
Correctness (cycle- and event-exactness) is covered by
``tests/test_fastpath.py`` (disarmed) and ``tests/test_fastpath_armed.py``
(faults + QoS armed) and ``tests/test_ros_batched.py`` (the executor); this
file pins the *performance* claims and records the tables under
``benchmarks/results/``.

The armed run pays for the static interference analysis once per fire
interval: ``ProgramMeta.stop_for_faults`` intersects the stretch with the
fire oracle, a peek that found the next fire answers every later consult
from its cache until the stream reaches it, and each fired fault ends the
batch and drops to ``step()`` for the recovery window.  What is left is the
stepping itself (recovery replays, pending SAVEs, the window a pending
SECDED flip keeps batching off until the flipped region is next read) and
the low-rate sites' limit-capped peeks, which only prove a lower bound and
are redone when a longer program asks.  The deterministic side of this
(draw and consult counts) is gated in ``tests/test_fastpath_armed.py``.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.dslam import DslamScenario, run_dslam
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.unit import Iau
from repro.nn import TensorShape
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem, compile_tasks
from repro.zoo import build_resnet, build_superpoint

from .conftest import write_result

SPEEDUP_FLOOR = 5.0
ARMED_SPEEDUP_FLOOR = 8.0
ROS_SPEEDUP_FLOOR = 5.0

#: Survivable long-run rates: every instruction-hosted site armed, but dialled
#: so 14 ResNet-scale jobs finish (campaign ``default_rates`` are tuned for a
#: single short run — at 500x the draws they exhaust the checkpoint CRC retry
#: budget, a legitimate detected-fatal, not a benchmark).
ARMED_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.0002,
    FaultSite.DDR_STALL: 0.01,
    FaultSite.IAU_DROP_PREEMPT: 0.05,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.005,
    FaultSite.CHECKPOINT_CORRUPT: 0.02,
}


@pytest.fixture(scope="module")
def fastpath_pair(big_config):
    return compile_tasks(
        [
            build_resnet("resnet18", TensorShape(240, 320, 3)),
            build_superpoint(TensorShape(120, 160, 1), head="detector"),
        ],
        big_config,
        weights="zeros",
    )


def run_workload(pair, batched: bool, faults: FaultPlan | None = None) -> int:
    low, high = pair
    system = MultiTaskSystem(low.config, faults=faults)
    system.add_task(0, high)
    system.add_task(1, low)
    system.submit(
        1, at_cycle=0, policy=ArrivalPolicy.PERIODIC,
        period_cycles=600_000, count=6,
    )
    system.submit(
        0, at_cycle=150_000, policy=ArrivalPolicy.PERIODIC,
        period_cycles=450_000, count=8,
    )
    return system.run(batched=batched)


def best_of(repeats: int, fn) -> tuple[float, int]:
    best = float("inf")
    clock = 0
    for _ in range(repeats):
        start = time.perf_counter()
        clock = fn()
        best = min(best, time.perf_counter() - start)
    return best, clock


def test_fastpath_speedup(fastpath_pair):
    # Warm once so program-metadata construction (a one-time, per-program
    # cost amortised across every later run) is priced separately.
    cold_start = time.perf_counter()
    clock_warmup = run_workload(fastpath_pair, batched=True)
    cold = time.perf_counter() - cold_start

    stepped_s, clock_stepped = best_of(2, lambda: run_workload(fastpath_pair, False))
    batched_s, clock_batched = best_of(2, lambda: run_workload(fastpath_pair, True))

    assert clock_batched == clock_stepped == clock_warmup  # cycle-exact
    speedup_cold = stepped_s / cold
    speedup_warm = stepped_s / batched_s

    lines = [
        "Fast-path speedup: horizon-batched vs step-wise dispatch",
        "workload: ResNet-18@240x320 + SuperPoint@120x160, 14 periodic jobs",
        f"final clock (both paths)   : {clock_batched:>12,} cycles",
        f"step-wise wall time        : {stepped_s * 1e3:>12.1f} ms",
        f"batched wall time (cold)   : {cold * 1e3:>12.1f} ms   ({speedup_cold:.1f}x)",
        f"batched wall time (warm)   : {batched_s * 1e3:>12.1f} ms   ({speedup_warm:.1f}x)",
        f"acceptance floor           : {SPEEDUP_FLOOR:.1f}x",
    ]
    write_result("fastpath_speedup", "\n".join(lines))

    assert speedup_cold >= SPEEDUP_FLOOR
    assert speedup_warm >= SPEEDUP_FLOOR


def test_fastpath_speedup_armed(fastpath_pair):
    """Same workload with a live FaultPlan: batching must still pay >= 8x.

    Both paths draw the identical per-site RNG streams (the batched path
    burns the oracle-vouched safe draws it skipped), so with equal seeds
    the runs are bit-identical — same final clock, same injected faults.
    """

    def armed(batched: bool, seed: int = 0):
        plan = FaultPlan(seed=seed, rates=ARMED_RATES)
        clock = run_workload(fastpath_pair, batched, faults=plan)
        return clock, plan

    armed(True)  # warm the program metadata (stretch + opportunity tables)

    stepped_s, (clock_stepped, plan_stepped) = best_of(2, lambda: armed(False))
    batched_s, (clock_batched, plan_batched) = best_of(2, lambda: armed(True))

    assert clock_batched == clock_stepped  # cycle-exact under fire
    assert plan_batched.injected == plan_stepped.injected
    assert plan_batched.count() > 0  # the plan must actually fire
    speedup = stepped_s / batched_s

    lines = [
        "Armed fast-path speedup: batched vs step-wise, live FaultPlan",
        "workload: ResNet-18@240x320 + SuperPoint@120x160, 14 periodic jobs",
        "rates: " + ", ".join(
            f"{site.value}={rate}" for site, rate in sorted(
                ARMED_RATES.items(), key=lambda item: item[0].value
            )
        ),
        f"final clock (both paths)   : {clock_batched:>12,} cycles",
        f"faults injected (both)     : {plan_batched.count():>12,}",
        f"armed step-wise wall time  : {stepped_s * 1e3:>12.1f} ms",
        f"armed batched wall time    : {batched_s * 1e3:>12.1f} ms   ({speedup:.1f}x)",
        f"acceptance floor           : {ARMED_SPEEDUP_FLOOR:.1f}x",
    ]
    write_result("fastpath_speedup_armed", "\n".join(lines))

    assert speedup >= ARMED_SPEEDUP_FLOOR


def test_fastpath_speedup_ros(paper_workloads, monkeypatch):
    """The E10 mission through ``repro.ros``: ``Executor.run`` retires one
    event-bounded stretch per iteration.  The reference is the same executor
    with ``Iau.run_batched`` patched to a single ``step()``, i.e. the
    per-instruction loop it used to drive; both walls include everything
    else a mission costs (agent build, camera, VO, place recognition)."""
    gem, _, superpoint_small = paper_workloads
    scenario = DslamScenario(num_frames=40, fps=20.0)

    def mission():
        result = run_dslam(superpoint_small, gem, scenario)
        accelerator_side = [
            (a.final_cycle, a.fe_jobs, a.fe_deadline_misses,
             a.fe_mean_response_cycles, a.pr_outputs, a.pr_frame_gaps)
            for a in result.agents
        ]
        text = repr(accelerator_side) + result.format()
        return hashlib.sha256(text.encode()).hexdigest()[:16], result

    # Warm once: the first mission on a freshly compiled pair builds both
    # programs' ProgramMeta (a compile-cache hit arrives primed).  The pair
    # is a session fixture other benchmarks may have warmed already, so no
    # cold number is reported here.
    mission()

    batched_s, (digest_batched, result) = best_of(2, mission)
    with monkeypatch.context() as patch:
        patch.setattr(Iau, "run_batched", lambda self, horizon=None: self.step())
        stepped_s, (digest_stepped, _) = best_of(1, mission)

    assert digest_batched == digest_stepped
    speedup = stepped_s / batched_s

    lines = [
        "ROS executor speedup: event-bounded stretches vs one step() per instruction",
        "workload: E10, two agents, SuperPoint@120x160 (FE) + GeM/ResNet-101@480x640 (PR), "
        "40 frames @ 20 fps",
        f"final clock (both paths)   : {max(a.final_cycle for a in result.agents):>12,} cycles",
        f"digest (both paths)        : {digest_batched:>16}",
        f"stepped mission wall time  : {stepped_s * 1e3:>12.1f} ms",
        f"batched mission (warm)     : {batched_s * 1e3:>12.1f} ms   ({speedup:.1f}x)",
        f"acceptance floor           : {ROS_SPEEDUP_FLOOR:.1f}x",
    ]
    write_result("fastpath_speedup_ros", "\n".join(lines))

    assert speedup >= ROS_SPEEDUP_FLOOR
