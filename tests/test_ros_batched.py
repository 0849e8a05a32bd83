"""The ROS executor on the batched engine: exact against the stepped oracle.

``Executor.run`` advances the accelerator with ``Iau.run_batched(horizon)``,
the horizon being its next scheduled event (or the ``until_cycle`` pause
point).  The oracle is the same executor with ``Iau.run_batched`` patched to
a single ``step()``.  Each case of the bare executor and the DSLAM agents is
a conformance cell (``tests/conformance.py``) held to that oracle on its
whole observable surface.  Here also: a plain mission really retires in
stretches, and a completion inside a step-out is its own call.
"""
from __future__ import annotations

import pytest

from repro.dslam import DslamScenario
from repro.dslam.system import build_agent
from repro.dslam.world import World
from repro.errors import CheckpointError, EccError
from repro.hw.config import AcceleratorConfig
from repro.iau.unit import Iau
from repro.nn import TensorShape
from repro.ros import Executor
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.zoo import build_gem, build_superpoint, build_tiny_cnn, build_tiny_conv
from tests.conformance import (
    DSLAM_CASES, ROS_CASES, ROS_RATES, ROS_SEEDS, case_cell, check, ros_plan, seen, stepped,
)


@pytest.fixture(scope="module")
def tiny_fe_pr():
    config = AcceleratorConfig.worked_example()
    return compile_tasks([build_tiny_conv(), build_tiny_cnn()], config, weights="zeros")


# -- the bare executor and the DSLAM agents ------------------------------------


@pytest.mark.parametrize("case", ROS_CASES)
@pytest.mark.parametrize("seed", ROS_SEEDS)
def test_bare_executor_matches_stepped_oracle(case, seed):
    subject = check(case_cell("ros", case, seed))
    assert any(subject.observed["jobs"][0])


def test_the_armed_cells_really_fire():
    """The fault cells must exercise every site, the backpressure cells
    their retries."""
    sites = set().union(*(seen(case_cell("ros", "faults", seed))["sites"] for seed in ROS_SEEDS))
    assert sites == set(ROS_RATES)
    kinds = set().union(
        *(seen(case_cell("ros", "backpressure", seed))["kinds"] for seed in ROS_SEEDS)
    )
    assert {"ros_retry", "ros_ack"} <= kinds


@pytest.mark.parametrize("case", DSLAM_CASES)
@pytest.mark.parametrize("seed", ROS_SEEDS)
def test_dslam_agents_match_stepped_oracle(case, seed):
    check(case_cell("dslam", case, seed))


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
    system = MultiTaskSystem(fe.config, faults=ros_plan(seed))
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
    for seed in ROS_SEEDS:
        real, at_job_end = drive_completions(tiny_fe_pr, seed)
        with pytest.MonkeyPatch.context() as patch:
            stepped(patch)
            oracle, _ = drive_completions(tiny_fe_pr, seed)
        assert real == oracle and len(real) > 16
        landed += at_job_end
    assert landed > 0  # some step-out really ran into a job's end
