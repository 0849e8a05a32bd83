"""Intra-agent loop closure and Chrome trace export."""

import json

import numpy as np
import pytest

from repro.dslam import (
    Camera,
    CameraConfig,
    PlaceEncoder,
    World,
    WorldConfig,
    perimeter_trajectory,
)
from repro.dslam.loop_closure import LoopCloser
from repro.obs import EventKind, ObsConfig, events_to_chrome
from repro.tools.chrome_trace import write_chrome_trace
from repro.units import Frequency


@pytest.fixture(scope="module")
def world():
    return World.generate(WorldConfig())


class TestLoopCloser:
    def drive_loop(self, world, frames=50, noise=0.03, closer=None):
        camera = Camera(world, CameraConfig(position_noise=noise), seed=5)
        encoder = PlaceEncoder()
        closer = closer or LoopCloser()
        inset = 4.0
        perimeter = 2 * (
            (world.config.width - 2 * inset) + (world.config.height - 2 * inset)
        )
        speed = perimeter / (frames / 20.0)
        truth = perimeter_trajectory(world, frames + 1, fps=20.0, speed=speed)
        for seq, pose in enumerate(truth):
            frame = camera.capture(pose, seq, 0)
            closer.observe(frame, encoder.encode(frame))
        return closer, truth

    def test_full_lap_closes_a_loop(self, world):
        closer, _ = self.drive_loop(world)
        assert closer.closures
        final = closer.closures[-1]
        assert final.j - final.i >= closer.min_frame_gap
        assert final.similarity >= closer.similarity_threshold

    def test_adjacent_frames_never_close(self, world):
        closer, _ = self.drive_loop(world, frames=20)
        for closure in closer.closures:
            assert closure.j - closure.i >= closer.min_frame_gap

    def test_closure_relative_pose_accurate(self, world):
        from repro.dslam import compose
        from repro.dslam.system import _to_local_frame

        closer, truth = self.drive_loop(world, noise=0.0)
        assert closer.closures
        truth_local = _to_local_frame(truth)
        closure = closer.closures[-1]
        predicted = compose(truth_local[closure.i], closure.relative)
        actual = truth_local[closure.j]
        assert np.hypot(predicted[0] - actual[0], predicted[1] - actual[1]) < 0.2

    def test_optimize_reduces_drift(self, world):
        from repro.dslam import (
            FeatureExtractor,
            FrontendConfig,
            VisualOdometry,
            absolute_trajectory_error,
        )
        from repro.dslam.system import _to_local_frame

        camera = Camera(world, CameraConfig(position_noise=0.08), seed=6)
        encoder = PlaceEncoder()
        extractor = FeatureExtractor(FrontendConfig(min_score=0.0))
        closer = LoopCloser()
        vo = VisualOdometry()
        frames = 60
        inset = 4.0
        perimeter = 2 * (
            (world.config.width - 2 * inset) + (world.config.height - 2 * inset)
        )
        truth = perimeter_trajectory(
            world, frames + 1, fps=20.0, speed=perimeter / (frames / 20.0)
        )
        for seq, pose in enumerate(truth):
            frame = camera.capture(pose, seq, 0)
            vo.update(extractor.extract(frame))
            closer.observe(frame, encoder.encode(frame))
        truth_local = _to_local_frame(truth)
        before = absolute_trajectory_error(vo.trajectory, truth_local)
        corrected = closer.optimize(vo.trajectory)
        after = absolute_trajectory_error(corrected, truth_local)
        assert closer.closures
        assert after <= before

    def test_no_closures_identity(self, world):
        closer = LoopCloser()
        trajectory = [(float(i), 0.0, 0.0) for i in range(5)]
        assert closer.optimize(trajectory) == trajectory


class TestChromeTrace:
    def make_trace(self, tiny_pair):
        from repro.runtime import MultiTaskSystem

        low, high = tiny_pair
        system = MultiTaskSystem(low.config, obs=ObsConfig(events=True))
        system.add_task(0, high)
        system.add_task(1, low)
        system.submit(1, 0)
        system.submit(0, 4000)
        system.run()
        return system.bus.of_kind(EventKind.INSTR_RETIRE)

    def test_events_complete(self, tiny_pair):
        trace = self.make_trace(tiny_pair)
        events = events_to_chrome(trace, Frequency.mhz(300))
        assert len(events) == len(trace)
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            assert event["tid"] in (0, 1)

    def test_file_is_valid_json(self, tiny_pair, tmp_path):
        trace = self.make_trace(tiny_pair)
        path = write_chrome_trace(trace, Frequency.mhz(300), tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert payload["metadata"]["clock_hz"] == 300e6

    def test_timestamps_in_microseconds(self, tiny_pair):
        trace = self.make_trace(tiny_pair)
        events = events_to_chrome(trace, Frequency.mhz(300))
        first = events[0]
        assert first["ts"] == pytest.approx(trace[0].cycle / 300)
