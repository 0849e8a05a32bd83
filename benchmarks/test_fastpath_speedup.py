"""Fast-path speedup guards: the horizon-batched dispatch loop must beat the
step-wise loop by >= 5x disarmed, >= 20x with a live FaultPlan, >= 5x
under the ROS executor (the whole two-agent E10 mission, CPU-side DSLAM
included), and >= 2.5x on a functional core, whose batched stretches compute
their SAVEs one layer at a time instead of one CALC at a time.

The workload is ResNet-scale (tens of thousands of instructions per job)
with periodic overlapping arrivals, exactly the regime the fast path was
built for: long uninterruptible stretches punctuated by switch points.
Correctness (cycle- and event-exactness, disarmed, armed and under the
executor) is the conformance matrix's (``tests/conformance.py``);
this file pins the *performance* claims and records the tables under
``benchmarks/results/``.

The armed run pays for the static interference analysis once per fire
interval: ``ProgramMeta.stop_for_faults`` intersects the stretch with the
fire oracle, whose look-ahead buffer draws every stream value once, and
each fired fault that is not a ``ddr.stall`` ends the batch and drops to
``step()`` for the recovery window.  Stalls are pure latency, retired
inside the batch (``ProgramMeta.stall_fires``), and a pending SECDED flip
only ends a batch before the next instruction touching its region.  What
is left is the stepping itself: recovery replays, pending SAVEs and the
step-outs at those bounds.  The deterministic side of this (draw, consult
and stepped-instruction counts) is gated in ``tests/test_fastpath_armed.py``.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro.accel.reference import golden_output
from repro.dslam import DslamScenario, run_dslam
from repro.estimate import estimate_service_cycles
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.unit import Iau
from repro.nn import TensorShape
from repro.obs.config import ObsConfig
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem, compile_tasks
from repro.zoo import build_resnet, build_superpoint
from tests.conformance import stepped

from .conftest import write_result

SPEEDUP_FLOOR = 5.0
ARMED_SPEEDUP_FLOOR = 20.0
ROS_SPEEDUP_FLOOR = 5.0
FUNCTIONAL_SPEEDUP_FLOOR = 2.5

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
    """Same workload with a live FaultPlan: batching must still pay >= 20x.

    Both paths consume the identical per-site RNG streams (the batched path
    burns the read-ahead draws it covered, stalls included), so with equal
    seeds the runs are bit-identical — same final clock, same injected
    faults.
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


@pytest.fixture(scope="module")
def functional_pair(big_config):
    """The ``functional_preempt`` pair: ResNet-18@64x64 and SuperPoint@60x80
    with random weights and inputs, and each one's ``golden_output``."""
    pair = compile_tasks(
        [
            build_resnet("resnet18", TensorShape(64, 64, 3)),
            build_superpoint(TensorShape(60, 80, 1), head="detector"),
        ],
        big_config,
        weights="random",
        seed=0,
    )
    rng = np.random.default_rng(0)
    golden = []
    for net in pair:
        shape = net.graph.input_shape
        data = rng.integers(-8, 8, size=(shape.height, shape.width, shape.channels))
        net.set_input(data.astype(np.int8))
        golden.append(golden_output(net, data).tobytes())
    return pair, golden


def run_functional(pair) -> tuple[int, list[bytes]]:
    """One ResNet-18 job pre-empted by each of three SuperPoint jobs, with
    real int8 arithmetic; returns the final clock and both outputs."""
    low, high = pair
    for net in pair:
        # A run that computed nothing must not pass on the last run's output.
        net.layout.ddr.region(net.output_region).array[...] = 0
    high_cycles = estimate_service_cycles(high.config, high)
    low_cycles = estimate_service_cycles(low.config, low)
    system = MultiTaskSystem(low.config, obs=ObsConfig(functional=True))
    system.add_task(0, high)
    system.add_task(1, low)
    system.submit(
        1, at_cycle=0, policy=ArrivalPolicy.PERIODIC,
        period_cycles=low_cycles + 3 * high_cycles, count=1,
    )
    system.submit(
        0, at_cycle=high_cycles // 2, policy=ArrivalPolicy.PERIODIC,
        period_cycles=int(1.7 * high_cycles), count=3,
    )
    clock = system.run()
    assert system.iau.num_switches > 4  # every SuperPoint job pre-empted ResNet-18
    return clock, [net.get_output().tobytes() for net in pair]


def test_functional_preempt_speedup(functional_pair, monkeypatch):
    """A functional core batches where a timing-only one does; the
    reference is the same run with every ``run_batched`` a single
    ``step()`` (``conformance.stepped``), i.e. one CALC at a time."""
    pair, golden = functional_pair
    run_functional(pair)  # warm the program metadata
    batched_s, (clock_batched, outputs_batched) = best_of(3, lambda: run_functional(pair))
    with monkeypatch.context() as patch:
        stepped(patch)
        stepped_s, (clock_stepped, outputs_stepped) = best_of(2, lambda: run_functional(pair))

    assert clock_batched == clock_stepped  # cycle-exact
    assert outputs_batched == outputs_stepped == golden  # bit-exact
    speedup = stepped_s / batched_s

    lines = [
        "Functional fast-path speedup: batched stretches vs one step() per instruction",
        "workload: ResNet-18@64x64 pre-empted by 3 SuperPoint@60x80 jobs, "
        "ObsConfig(functional=True), random weights",
        f"final clock (both paths)   : {clock_batched:>12,} cycles",
        "outputs                    : identical, and equal to golden_output",
        f"stepped wall time          : {stepped_s * 1e3:>12.1f} ms",
        f"batched wall time (warm)   : {batched_s * 1e3:>12.1f} ms   ({speedup:.1f}x)",
        f"acceptance floor           : {FUNCTIONAL_SPEEDUP_FLOOR:.1f}x",
    ]
    write_result("fastpath_speedup_functional", "\n".join(lines))

    assert speedup >= FUNCTIONAL_SPEEDUP_FLOOR
