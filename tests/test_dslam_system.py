"""End-to-end DSLAM experiment (E10) on small stand-in networks.

The benchmark runs the paper's SuperPoint/GeM workloads; these tests use tiny
networks (seconds, not minutes) to exercise the same code paths: ROS nodes,
accelerator preemption, PR frame skipping, cross-agent matching, merging.
"""

import pytest

from repro.dslam import DslamScenario, run_dslam
from repro.hw.config import AcceleratorConfig
from repro.runtime.system import compile_tasks
from repro.zoo import build_tiny_cnn, build_tiny_conv
from tests.pins import PINS


@pytest.fixture(scope="module")
def dslam_result():
    config = AcceleratorConfig.worked_example()
    fe, pr = compile_tasks([build_tiny_conv(), build_tiny_cnn()], config, weights="zeros")
    # High fps + high speed compress the mission so tiny networks still
    # exhibit FE-preempts-PR dynamics and trajectory overlap.
    scenario = DslamScenario(num_frames=60, fps=2000.0, speed=150.0)
    return run_dslam(fe, pr, scenario)


class TestAgents:
    def test_two_agents(self, dslam_result):
        assert len(dslam_result.agents) == 2

    def test_fe_processes_every_frame(self, dslam_result):
        for agent in dslam_result.agents:
            assert agent.fe_jobs == 60

    def test_fe_never_misses_deadline(self, dslam_result):
        assert dslam_result.total_deadline_misses() == 0

    def test_fe_response_is_fast(self, dslam_result):
        for agent in dslam_result.agents:
            assert agent.fe_mean_response_cycles < dslam_result.frame_period_cycles

    def test_pr_produces_outputs(self, dslam_result):
        for agent in dslam_result.agents:
            assert agent.pr_outputs >= 2

    def test_vo_trajectories_track_ground_truth(self, dslam_result):
        for agent in dslam_result.agents:
            assert agent.ate_meters < 1.0

    def test_trajectory_lengths_match_frames(self, dslam_result):
        for agent in dslam_result.agents:
            assert len(agent.estimated_trajectory) == 60


class TestMerge:
    def test_cross_agent_matches_found(self, dslam_result):
        assert dslam_result.matches

    def test_match_precision_high(self, dslam_result):
        assert dslam_result.match_precision >= 0.9

    def test_merge_succeeded(self, dslam_result):
        assert dslam_result.merge is not None
        assert dslam_result.merge.shared_landmarks >= 5

    def test_merged_ate_small(self, dslam_result):
        assert dslam_result.merged_ate_meters is not None
        assert dslam_result.merged_ate_meters < 1.0

    def test_format_mentions_key_results(self, dslam_result):
        text = dslam_result.format()
        assert "PR" in text and "merge" in text and "ATE" in text


class TestPrCadence:
    def test_gaps_are_regular(self, dslam_result):
        """PR cadence: all gaps within a tight band (no starvation)."""
        for agent in dslam_result.agents:
            gaps = agent.pr_frame_gaps
            assert gaps
            assert max(gaps) - min(gaps) <= 2

    def test_mean_gap_available(self, dslam_result):
        assert dslam_result.mean_pr_gap() >= 1.0


class TestLoopClosureIntegration:
    def test_full_lap_closes_and_improves(self):
        """A full lap makes each agent re-visit its start: PR closures fire
        and the pose graph reduces the trajectory error."""
        config = AcceleratorConfig.worked_example()
        fe, pr = compile_tasks(
            [build_tiny_conv(), build_tiny_cnn()], config, weights="zeros"
        )
        scenario = DslamScenario(num_frames=120, fps=2000.0, speed=1900.0)
        result = run_dslam(fe, pr, scenario)
        for agent in result.agents:
            assert agent.loop_closures >= 1
            assert agent.ate_optimized_meters is not None
            assert agent.ate_optimized_meters <= agent.ate_meters
        assert "loop closures" in result.format()

    def test_disabled_by_scenario_flag(self, dslam_result):
        config = AcceleratorConfig.worked_example()
        fe, pr = compile_tasks(
            [build_tiny_conv(), build_tiny_cnn()], config, weights="zeros"
        )
        scenario = DslamScenario(
            num_frames=20, fps=2000.0, speed=150.0, loop_closure=False
        )
        result = run_dslam(fe, pr, scenario)
        for agent in result.agents:
            assert agent.loop_closures == 0
            assert agent.ate_optimized_meters is None


class TestPreemptionInLoop:
    def test_fe_preempts_pr(self):
        """With a PR that takes several frame periods, FE still meets every
        frame: direct evidence the accelerator is interruptible in the loop."""
        config = AcceleratorConfig.worked_example()
        fe, pr = compile_tasks([build_tiny_conv(), build_tiny_cnn()], config, weights="zeros")
        # fps such that the frame period is far shorter than PR alone.
        from repro.interrupt import VIRTUAL_INSTRUCTION, run_alone

        pr_alone = run_alone(pr, VIRTUAL_INSTRUCTION)
        fps = config.clock.hz / (pr_alone / 4)
        scenario = DslamScenario(num_frames=24, fps=fps, speed=2000.0 * 1.5 / fps * 20)
        result = run_dslam(fe, pr, scenario)
        assert result.total_deadline_misses() == 0
        for agent in result.agents:
            assert agent.pr_outputs < agent.fe_jobs
            assert min(agent.pr_frame_gaps) >= 4


HOST = PINS["host"]
HOST_DIGESTS = HOST.load()["digests"]


@pytest.mark.parametrize("seed", HOST.cases())
def test_host_outputs_pinned(seed):
    """Every host-side DSLAM result (VO, loop closure, place matching, map
    merge), which the accelerator digest in ``benchmarks/perf/expected.json``
    does not see: any change to the host geometry must leave it unchanged."""
    assert HOST.digests(seed) == {str(seed): HOST_DIGESTS[str(seed)]}
