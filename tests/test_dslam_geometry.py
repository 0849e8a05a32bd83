"""The DSLAM host geometry as array passes, bit-equal to the loops it replaced.

``tests/dslam_oracle.py`` holds the per-hypothesis, per-pair,
per-landmark, per-row and per-candidate loops; every case here requires
the same bits (arrays compared byte for byte), the same objects in the
same order, or the same generator state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dslam import (
    Camera,
    CameraConfig,
    World,
    WorldConfig,
    match_features,
    perimeter_trajectory,
    ransac_rigid_2d,
)
from repro.dslam import vo
from repro.dslam.frontend import _non_maximum_suppression
from repro.dslam.world import Landmark
from repro.ros.messages import Feature
from tests import dslam_oracle


def assert_bit_equal(got: tuple, want: tuple) -> None:
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def assert_same_ransac(source, target, **kwargs) -> np.ndarray:
    got = ransac_rigid_2d(source, target, **kwargs)
    assert_bit_equal(got, dslam_oracle.ransac_rigid_2d(source, target, **kwargs))
    return got[2]


def draws(count: int, seed: int) -> np.ndarray:
    return dslam_oracle.choice_pairs(count, 32, seed)


#: Coordinates snapped to this grid repeat, so draws hit coincident
#: points and hypotheses tie on their inlier counts.
GRID = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])


class TestRansac:
    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(2, 16),
        seed=st.integers(0, 2**16),
        snap=st.booleans(),
        angle=st.floats(-3.2, 3.2),
        noise=st.sampled_from([0.0, 0.05, 0.3]),
        outliers=st.integers(0, 6),
        iterations=st.integers(0, 40),
        threshold=st.sampled_from([0.0, 0.1, 0.25, 1.0, 5.0]),
    )
    def test_matches_loop(
        self, count, seed, snap, angle, noise, outliers, iterations, threshold
    ):
        rng = np.random.default_rng(seed)
        source = rng.uniform(-5, 5, size=(count, 2))
        if snap:
            source = rng.choice(GRID, size=(count, 2))
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        target = source @ rotation.T + rng.uniform(-3, 3, size=2)
        target += rng.normal(0, noise, size=target.shape) if noise else 0.0
        target[rng.permutation(count)[:outliers]] += rng.uniform(-10, 10, size=2)
        assert_same_ransac(
            source, target, iterations=iterations, inlier_threshold=threshold, seed=seed
        )

    def test_duplicate_sources_skip_draws(self):
        source = np.array([[0.0, 0.0]] * 4 + [[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
        target = source + [1.0, -2.0]
        target[-1] += 4.0
        skipped = [s for s in range(20) if any(a < 4 and b < 4 for a, b in draws(7, s))]
        assert skipped
        for seed in skipped:
            assert_same_ransac(source, target, seed=seed)

    def test_degenerate_cut_off_rounds_as_norm(self):
        """Source gaps of about 1e-6, the skip cut-off, whose length rounds
        to the other side of it as a plain sum of squares than as the BLAS
        dot np.linalg.norm takes, where the two round differently (OpenBLAS
        on x86-64 does, for ~8 % of 2-vectors).  Whether the tiny pair is
        skipped decides the mask: its own hypothesis finds 2 inliers, the
        others none, which falls back to all 3."""
        for gap in [
            (float.fromhex("0x1.1ea9eb65a7365p-24"), float.fromhex("0x1.0bd63dafe7fb0p-20")),
            (float.fromhex("-0x1.016bf01c6fb12p-20"), float.fromhex("-0x1.3069ad665f855p-22")),
        ]:
            source = np.array([[0.0, 0.0], gap, [5.0, 0.0]])
            target = np.array([[0.0, 0.0], gap, [100.0, 100.0]])
            for seed in range(3):
                assert_same_ransac(source, target, seed=seed)

    def test_every_draw_degenerate_falls_back_to_all(self):
        source = np.ones((5, 2))
        target = np.random.default_rng(1).uniform(-1, 1, size=(5, 2))
        for seed in range(5):
            assert assert_same_ransac(source, target, seed=seed).all()

    def test_two_correspondences(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            source = rng.uniform(-2, 2, size=(2, 2))
            target = source[::-1] + rng.uniform(-1, 1, size=2)
            assert_same_ransac(source, target, seed=seed)

    def test_first_hypothesis_wins_a_tie(self):
        """Two groups of four, each moved rigidly its own way: a draw inside
        either group finds that group's 4 inliers.  The first such draw must
        win, though a later draw ties it with the other group."""
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        source = np.vstack([a, a + 20.0])
        target = np.vstack([a + [1.0, 0.0], a + 20.0 + [-3.0, 5.0]])
        group = [0, 0, 0, 0, 1, 1, 1, 1]

        def tied(seed: int) -> bool:
            inside = [group[i] for i, j in draws(8, seed) if group[i] == group[j]]
            return inside[0] != inside[-1]

        seed = next(seed for seed in range(100) if tied(seed))
        first = next(group[i] for i, j in draws(8, seed) if group[i] == group[j])
        mask = assert_same_ransac(source, target, seed=seed)
        assert mask.tolist() == [g == first for g in group]


class TestDrawPairs:
    """``vo.draw_pairs`` against one ``rng.choice`` call per pair.  The
    helper takes the count alone, so counts past any array size are
    checked without allocating one."""

    @pytest.fixture
    def fallbacks(self, monkeypatch) -> list[int]:
        """The counts for which ``draw_pairs`` fell back to the loop."""
        counts: list[int] = []
        loop = vo._choice_pairs

        def spy(count: int, iterations: int, seed: int) -> np.ndarray:
            counts.append(count)
            return loop(count, iterations, seed)

        monkeypatch.setattr(vo, "_choice_pairs", spy)
        return counts

    @staticmethod
    def assert_same_pairs(count: int, iterations: int, seed: int) -> None:
        got = vo.draw_pairs(count, iterations, seed)
        want = dslam_oracle.choice_pairs(count, iterations, seed)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.intp, (iterations, 2))
        assert got.tobytes() == want.tobytes(), (count, iterations, seed)

    def test_matches_loop(self, fallbacks):
        """Counts 2-2,000 and 10**6, every iteration count 0-40; only
        ``count == 2`` leaves the block here (no draw of these seeds
        lands under a rejection threshold)."""
        for count in [*range(2, 2001), 10**6]:
            self.assert_same_pairs(count, count % 41, seed=count)
        for count in (3, 4, 5, 17):
            for iterations in range(41):
                self.assert_same_pairs(count, iterations, seed=iterations)
        assert set(fallbacks) == {2}

    def test_rejection_falls_back(self, fallbacks):
        """At 2**31 + 1 the second draw's threshold is 2**31 - 1, so about
        half its words would be rejected and drawn again by numpy."""
        for seed in range(5):
            self.assert_same_pairs(2**31 + 1, 32, seed)
        assert fallbacks == [2**31 + 1] * 5

    def test_past_32_bits_falls_back(self, fallbacks):
        for seed in range(3):
            self.assert_same_pairs(2**32 + 5, 32, seed)
        assert fallbacks == [2**32 + 5] * 3

    def test_two_falls_back(self, fallbacks):
        for seed in range(3):
            self.assert_same_pairs(2, 32, seed)
        assert fallbacks == [2] * 3


def assert_same_frame(got, want) -> None:
    assert got.header == want.header and got.true_pose == want.true_pose
    assert list(got.observations) == list(want.observations)
    assert np.array(list(got.observations.values())).tobytes() == (
        np.array(list(want.observations.values())).tobytes()
    )
    assert list(got.descriptors) == list(want.descriptors)
    for key, descriptor in got.descriptors.items():
        assert (descriptor.dtype, descriptor.shape) == (
            want.descriptors[key].dtype,
            want.descriptors[key].shape,
        )
        assert descriptor.tobytes() == want.descriptors[key].tobytes()


def assert_same_captures(world: World, config: CameraConfig, seed: int, poses) -> None:
    """The same frames and, after each, the same generator state."""
    camera = Camera(world, config, seed=seed)
    reference = Camera(world, config, seed=seed)
    for seq, pose in enumerate(poses):
        assert_same_frame(
            camera.capture(pose, seq, 100 * seq, "cam"),
            dslam_oracle.capture(reference, pose, seq, 100 * seq, "cam"),
        )
        assert camera._rng.bit_generator.state == reference._rng.bit_generator.state


class TestCameraCapture:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        frames=st.integers(1, 6),
        start=st.floats(0.0, 1.0),
        clockwise=st.booleans(),
        max_range=st.sampled_from([0.5, 5.0, 14.0, 60.0]),
        position_noise=st.sampled_from([0.0, 0.03, 1.0]),
        descriptor_noise=st.sampled_from([0.0, 0.05, 2.0]),
    )
    def test_matches_loop(
        self, seed, frames, start, clockwise, max_range, position_noise, descriptor_noise
    ):
        world = World.generate()
        config = CameraConfig(
            max_range=max_range, position_noise=position_noise, descriptor_noise=descriptor_noise
        )
        poses = perimeter_trajectory(
            world, frames, fps=2.0, start_fraction=start, clockwise=clockwise
        )
        assert_same_captures(world, config, seed, poses)

    def test_frames_that_see_nothing_or_one_landmark(self):
        world = World(config=WorldConfig())
        rng = np.random.default_rng(3)
        for x, y in [(1.0, 0.0), (3.0, 0.5), (-5.0, 0.0)]:
            world._add(rng, x, y)
        config = CameraConfig(max_range=6.0, fov=np.pi / 2)
        nothing, one, two = (30.0, 30.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.0)
        assert len(Camera(world, config).capture(nothing, 0, 0).observations) == 0
        assert len(Camera(world, config).capture(one, 0, 0).observations) == 1
        assert len(Camera(world, config).capture(two, 0, 0).observations) == 2
        assert_same_captures(world, config, 7, [one, nothing, two, one, nothing, nothing, one])

    @pytest.mark.parametrize("field", ["position_noise", "descriptor_noise"])
    @pytest.mark.parametrize("scale", [-0.05, -0.0, -np.inf])
    def test_a_negative_noise_is_refused(self, field, scale):
        """``rng.normal`` refuses a scale with its sign bit set, and so
        does the block draw, at the first frame that draws noise."""
        world = World.generate()
        config = CameraConfig(**{field: scale})
        for capture in (Camera.capture, dslam_oracle.capture):
            camera = Camera(world, config)
            capture(camera, (1000.0, 1000.0, 0.0), 0, 0)  # sees nothing, draws nothing
            with pytest.raises(ValueError, match="scale < 0"):
                capture(camera, (12.0, 4.0, 0.0), 1, 0)

    def test_a_nan_noise_passes_as_in_normal(self):
        config = CameraConfig(position_noise=np.nan)
        frame = Camera(World.generate(), config).capture((12.0, 4.0, 0.0), 0, 0)
        assert frame.observations and np.isnan(list(frame.observations.values())).all()


def _world(positions: list[tuple[float, float]]) -> World:
    descriptor = np.zeros(4)
    return World(
        config=WorldConfig(),
        landmarks={i: Landmark(i, x, y, descriptor) for i, (x, y) in enumerate(positions)},
    )


def assert_same_visible(world: World, pose, max_range: float, fov: float) -> list[int]:
    got = world.visible_from(pose, max_range, fov)
    want = dslam_oracle.visible_from(world, pose, max_range, fov)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    return [landmark.landmark_id for landmark in got]


@pytest.fixture(scope="module")
def arena() -> World:
    return World.generate(WorldConfig())


class TestVisibleFrom:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-5, 45),
        y=st.floats(-5, 35),
        on_landmark=st.one_of(st.none(), st.integers(0, 155)),
        theta=st.floats(-4, 4),
        max_range=st.floats(0, 60),
        fov=st.floats(0, 7),
    )
    def test_matches_loop(self, arena, x, y, on_landmark, theta, max_range, fov):
        if on_landmark is not None:
            landmark = arena.landmarks[on_landmark]
            x, y = landmark.x, landmark.y
        assert_same_visible(arena, (x, y, theta), max_range, fov)

    def test_boundaries(self):
        bearing = np.arctan2(1.0, 2.0)
        edge = float(np.arctan2(np.sin(bearing), np.cos(bearing)))
        world = _world([(0.0, 0.0), (3.0, 4.0), (2.0, 1.0), (2.0, 1.001), (-1.0, 0.0)])
        # Distance 0 is never visible; exactly max_range (hypot(3, 4) == 5)
        # and a bearing of exactly fov / 2 both are.
        assert assert_same_visible(world, (0.0, 0.0, 0.0), 5.0, 2 * edge) == [2]
        assert assert_same_visible(world, (0.0, 0.0, 0.0), 5.0, 2 * np.pi) == [1, 2, 3, 4]
        assert assert_same_visible(world, (0.0, 0.0, 0.0), np.nextafter(5.0, 0), np.pi) == [2, 3]

    def test_added_landmark_is_seen(self):
        world = _world([(1.0, 0.0)])
        assert assert_same_visible(world, (0.0, 0.0, 0.0), 10.0, np.pi) == [0]
        world._add(np.random.default_rng(0), 2.0, 0.0)
        assert assert_same_visible(world, (0.0, 0.0, 0.0), 10.0, np.pi) == [0, 1]


def _features(rng: np.random.Generator, count: int, distinct: int, scores) -> tuple:
    """``count`` features drawing descriptors and positions from
    ``distinct`` choices, so equal similarities and distances occur."""
    descriptors = rng.normal(size=(distinct, 8))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    picks = rng.integers(0, distinct, size=count)
    return tuple(
        Feature(
            landmark_id=i,
            x=float(rng.choice(GRID) * 0.6),
            y=float(rng.choice(GRID) * 0.6),
            score=float(rng.choice(scores)),
            descriptor=descriptors[picks[i]],
        )
        for i in range(count)
    )


def assert_same_objects(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = (g, w) if isinstance(g, tuple) else ((g,), (w,))
        assert all(a is b for a, b in zip(g, w, strict=True))


class TestMatchFeatures:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        previous=st.integers(0, 12),
        current=st.integers(0, 12),
        distinct=st.integers(1, 12),
        ratio=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    )
    def test_matches_loop(self, seed, previous, current, distinct, ratio):
        rng = np.random.default_rng(seed)
        before = _features(rng, previous, distinct, [1.0])
        after = _features(rng, current, distinct, [1.0])
        assert_same_objects(
            match_features(before, after, ratio),
            dslam_oracle.match_features(before, after, ratio),
        )


class TestNonMaximumSuppression:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(0, 40),
        radius=st.sampled_from([0.0, 0.3, 0.6, 1.0, 50.0]),
    )
    def test_matches_loop(self, seed, count, radius):
        rng = np.random.default_rng(seed)
        candidates = list(_features(rng, count, 1, [0.1, 0.5, 0.5, 0.9]))
        assert_same_objects(
            _non_maximum_suppression(candidates, radius),
            dslam_oracle.non_maximum_suppression(candidates, radius),
        )
