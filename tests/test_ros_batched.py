"""The ROS executor on the batched engine: exact against the stepped oracle.

``Executor.run`` advances the accelerator with ``Iau.run_batched(horizon)``,
the horizon being its next scheduled event (or the ``until_cycle`` pause
point).  The oracle here is the same executor with ``Iau.run_batched``
patched to a single ``step()`` — the per-instruction loop the executor used
to drive.  Every cell compares the whole observable surface: executor
clock, FE/PR job records, PR's processed frames, the full bus event stream,
the fault log and the core counters.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.dslam import DslamScenario
from repro.dslam.agent import CAMERA_TOPIC, PLACE_TOPIC
from repro.dslam.camera import frame_period_cycles
from repro.dslam.system import build_agent
from repro.dslam.world import World
from repro.errors import CheckpointError, EccError
from repro.faults.plan import FaultPlan, FaultSite
from repro.hw.config import AcceleratorConfig
from repro.iau.unit import Iau
from repro.nn import TensorShape
from repro.obs.config import ObsConfig
from repro.qos.config import BackpressureProfile, QosConfig
from repro.ros import Executor
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.zoo import build_gem, build_superpoint, build_tiny_cnn, build_tiny_conv

SEEDS = range(8)

#: Every instruction-hosted IAU/DDR site plus both message-level ones, at
#: rates a short run survives often and still fires several of each.
FAULT_RATES = {
    FaultSite.DDR_BIT_FLIP: 0.01,
    FaultSite.DDR_STALL: 0.03,
    FaultSite.IAU_DROP_PREEMPT: 0.3,
    FaultSite.IAU_SPURIOUS_PREEMPT: 0.003,
    FaultSite.CHECKPOINT_CORRUPT: 0.2,
    FaultSite.JOB_OVERRUN: 0.1,
    FaultSite.ROS_DROP: 0.15,
    FaultSite.ROS_DELAY: 0.15,
}

FRAME_TOPIC = "frames"


def stepped(monkeypatch: pytest.MonkeyPatch) -> None:
    """The oracle: every stretch degenerates to one ``step()``."""
    monkeypatch.setattr(Iau, "run_batched", lambda self, horizon=None: self.step())


def fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed, rates=FAULT_RATES, overrun_cycles=3_000, ros_delay_cycles=2_500
    )


def run_chunked(executor: Executor, chunk: int, last_frame_cycle: int) -> None:
    """Pause every ``chunk`` cycles up to the last camera frame, then drain
    (a pause past the end would move the executor clock to the pause)."""
    for pause in range(chunk, last_frame_cycle, chunk):
        executor.run(until_cycle=pause)
        assert not executor.drained and executor.clock >= pause
    executor.run()
    assert executor.drained


def observe(executor: Executor, run, **extra) -> dict:
    """Drive ``run`` and collect everything a caller could look at."""
    system = executor.system
    try:
        run()
        crash = None
    except (EccError, CheckpointError) as exc:
        crash = f"{type(exc).__name__}: {exc}"
    return {
        "crash": crash,
        "clock": executor.clock,
        "iau_clock": system.iau.clock,
        "jobs": [[asdict(job) for job in system.jobs(task)] for task in (0, 1)],
        "events": None if system.bus is None else list(system.bus.events),
        "faults": None if system.faults is None else list(system.faults.injected),
        "pending_flips": system.ddr.pending_flip_count,
        "stats": asdict(system.core.stats),
        "switches": system.iau.num_switches,
        "violations": (
            None if system.monitor is None else [str(v) for v in system.monitor.violations]
        ),
        **extra,
    }


def assert_same(real: dict, oracle: dict) -> None:
    assert real.keys() == oracle.keys()
    for name in real:
        assert real[name] == oracle[name], name


# -- a bare two-task executor ---------------------------------------------------

CASES = ("plain", "obs_monitor", "faults", "backpressure", "chunked")


@pytest.fixture(scope="module")
def tiny_fe_pr():
    config = AcceleratorConfig.worked_example()
    return compile_tasks([build_tiny_conv(), build_tiny_cnn()], config, weights="zeros")


def drive_bare(pair, case: str, seed: int) -> dict:
    """A seeded FE/PR mission: a camera timer publishes frames; FE (slot 0)
    runs every frame and post-processes after a delay, PR (slot 1) runs when
    free.  The seed draws the frame period, the delays and the fault plan."""
    fe, pr = pair
    rng = random.Random(seed)
    armed = case in ("faults", "backpressure", "chunked")
    observed = case != "plain"
    system = MultiTaskSystem(
        fe.config,
        obs=ObsConfig(events=True) if observed else None,
        faults=fault_plan(seed) if armed else None,
        qos=(
            QosConfig(monitor=True, monitor_mode="report")
            if case == "obs_monitor"
            else None
        ),
    )
    system.add_task(0, fe, deadline_cycles=rng.randrange(2_000, 6_000))
    system.add_task(1, pr)
    executor = Executor(system)
    if case == "backpressure":
        executor.set_qos(
            FRAME_TOPIC,
            BackpressureProfile(
                depth=2, reliable=True, retry_base_cycles=rng.randrange(200, 900)
            ),
        )

    fe_done: list[int] = []
    pr_seqs: list[int] = []
    pr_busy = [False]
    postproc = rng.randrange(0, 1_500)

    def on_frame_fe(seq: int) -> None:
        def done(job) -> None:
            executor.schedule_after(postproc, lambda: fe_done.append(seq))

        executor.submit_job(0, done)

    def on_frame_pr(seq: int) -> None:
        if pr_busy[0]:
            return
        pr_busy[0] = True

        def done(job) -> None:
            pr_seqs.append(seq)
            pr_busy[0] = False
            executor.publish("places", seq)

        executor.submit_job(1, done)

    executor.subscribe(FRAME_TOPIC, on_frame_fe)
    executor.subscribe(FRAME_TOPIC, on_frame_pr)
    period = rng.randrange(1_500, 7_000)
    offset = rng.randrange(0, 500)
    frames = iter(range(24))
    executor.create_timer(
        period, lambda: executor.publish(FRAME_TOPIC, next(frames)), count=24,
        offset=offset,
    )
    if case == "chunked":
        chunk = rng.randrange(900, 5_000)
        run = lambda: run_chunked(executor, chunk, offset + 23 * period)  # noqa: E731
    else:
        run = executor.run
    return observe(executor, run, fe_done=fe_done, pr_seqs=pr_seqs)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bare_executor_matches_stepped_oracle(tiny_fe_pr, case, seed):
    real = drive_bare(tiny_fe_pr, case, seed)
    with pytest.MonkeyPatch.context() as patch:
        stepped(patch)
        # The oracle of a chunked run is one uninterrupted stepped run.
        oracle = drive_bare(tiny_fe_pr, "faults" if case == "chunked" else case, seed)
    assert_same(real, oracle)
    assert len(real["jobs"][0]) + len(real["jobs"][1]) > 0


def test_the_armed_cells_really_fire(tiny_fe_pr):
    """The fault cells must exercise every site, the QoS cell its retries."""
    sites = set()
    for seed in SEEDS:
        sites |= {fault.site for fault in drive_bare(tiny_fe_pr, "faults", seed)["faults"]}
    assert sites == set(FAULT_RATES)
    kinds = {
        event.kind.value
        for seed in SEEDS
        for event in drive_bare(tiny_fe_pr, "backpressure", seed)["events"]
    }
    assert {"ros_retry", "ros_ack"} <= kinds


# -- the DSLAM agents -----------------------------------------------------------


def drive_dslam(pair, case: str, seed: int) -> list[dict]:
    """Both agents of a small E10 mission, built exactly as ``run_dslam``
    builds them (the experiment itself returns outcomes, not the agents)."""
    fe, pr = pair
    armed = case in ("faults", "backpressure", "chunked")
    scenario = DslamScenario(
        num_frames=24,
        fps=2000.0,
        speed=150.0,
        seed=seed,
        obs=None if case == "plain" else ObsConfig(events=True),
        faults=fault_plan(seed) if armed else None,
    )
    world = World.generate(scenario.world)
    observations = []
    for index, (start_fraction, clockwise) in enumerate(scenario.starts):
        agent = build_agent(
            f"agent{index + 1}", world, fe, pr, scenario,
            start_fraction=start_fraction, clockwise=clockwise, seed=seed + index,
        )
        executor = agent.executor
        if case == "backpressure":
            executor.set_qos(CAMERA_TOPIC, BackpressureProfile(depth=2, reliable=True))
        if case == "chunked":
            period = frame_period_cycles(fe.config.clock.hz, scenario.fps)
            chunk = period * (3 + seed) // 10
            # What agent.run() does before it spins.
            executor.subscribe(PLACE_TOPIC, agent.descriptors.append)
            run = lambda: run_chunked(executor, chunk, 23 * period)  # noqa: E731
        else:
            run = agent.run
        observations.append(
            observe(
                executor, run,
                fe_jobs=[asdict(job) for job in agent.fe_node.jobs],
                pr_jobs=[asdict(job) for job in agent.pr_node.jobs],
                pr_seqs=agent.pr_node.processed_seqs,
            )
        )
    return observations


@pytest.mark.parametrize("case", [c for c in CASES if c != "obs_monitor"] + ["obs"])
@pytest.mark.parametrize("seed", SEEDS)
def test_dslam_agents_match_stepped_oracle(tiny_fe_pr, case, seed):
    real = drive_dslam(tiny_fe_pr, case, seed)
    with pytest.MonkeyPatch.context() as patch:
        stepped(patch)
        oracle = drive_dslam(tiny_fe_pr, "faults" if case == "chunked" else case, seed)
    for real_agent, oracle_agent in zip(real, oracle, strict=True):
        assert_same(real_agent, oracle_agent)


# -- engagement -----------------------------------------------------------------


def test_plain_run_retires_in_stretches_not_steps(monkeypatch):
    """A silent fallback to ``step()`` would pass every differential above."""
    pair = compile_tasks(
        [
            build_superpoint(TensorShape(60, 80, 1), head="detector"),
            build_gem(TensorShape(60, 80, 3), backbone="resnet18"),
        ],
        AcceleratorConfig.big(),
        weights="zeros",
    )
    scenario = DslamScenario(num_frames=6, fps=240.0)
    steps = 0
    original = Iau.step

    def counting_step(self):
        nonlocal steps
        steps += 1
        return original(self)

    monkeypatch.setattr(Iau, "step", counting_step)
    agent = build_agent(
        "agent1", World.generate(scenario.world), *pair, scenario,
        start_fraction=0.0, clockwise=False, seed=1,
    )
    agent.run()
    retired = agent.executor.system.core.stats.instructions
    assert len(agent.pr_node.jobs) >= 1 and len(agent.fe_node.jobs) == 6
    assert agent.executor.system.iau.num_switches > len(agent.fe_node.jobs) + len(
        agent.pr_node.jobs
    )  # FE really pre-empted PR
    assert steps < 0.05 * retired


# -- a completion inside a step-out ---------------------------------------------


def drive_completions(pair, seed: int) -> tuple[list[tuple], int]:
    """FE on a timer pre-empting a queue of PR jobs, under faults.  Every
    completion handler records what the accelerator had retired when it ran;
    also returns how many step-outs ended on a job's last instruction with
    other work runnable (0 under the stepped oracle, which has none)."""
    fe, pr = pair
    system = MultiTaskSystem(fe.config, faults=fault_plan(seed))
    system.add_task(0, fe)
    system.add_task(1, pr)
    executor = Executor(system)
    iau = system.iau
    seen: list[tuple] = []
    at_job_end = 0
    original = Iau._step_out

    def watching(self, context, stop, horizon):
        nonlocal at_job_end
        original(self, context, stop, horizon)
        if context.instr_index >= len(context.program) and any(
            other is not None and other is not context and other.runnable
            for other in self.contexts
        ):
            at_job_end += 1

    def done(task_id: int):
        def handler(job) -> None:
            seen.append(
                (task_id, job.complete_cycle, iau.clock, system.core.stats.instructions)
            )
            if task_id == 1 and len(seen) < 40:
                executor.submit_job(1, done(1))  # PR: back to back

        return handler

    executor.create_timer(
        1_700 + 37 * seed, lambda: executor.submit_job(0, done(0)), count=16
    )
    executor.submit_job(1, done(1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Iau, "_step_out", watching)
        try:
            executor.run()
        except (EccError, CheckpointError) as exc:
            seen.append((type(exc).__name__, str(exc)))
    return seen, at_job_end


def test_completion_inside_a_step_out_is_its_own_call(tiny_fe_pr):
    """A step-out that reaches the job's last instruction returns before
    completing it, so the handler the completion schedules runs before the
    next task's first instruction — at the same retired-instruction count
    as under the stepped oracle."""
    landed = 0
    for seed in SEEDS:
        real, at_job_end = drive_completions(tiny_fe_pr, seed)
        with pytest.MonkeyPatch.context() as patch:
            stepped(patch)
            oracle, _ = drive_completions(tiny_fe_pr, seed)
        assert real == oracle and len(real) > 16
        landed += at_job_end
    assert landed > 0  # some step-out really ran into a job's end
