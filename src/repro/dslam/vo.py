"""Visual odometry: frame-to-frame 2-D rigid motion from matched features.

VO matches features between consecutive frames by descriptor (nearest
neighbour with a ratio test — no identity leakage from the synthetic
landmark ids), estimates the rigid transform with a RANSAC-wrapped Kabsch
solve, and integrates the motion into a pose estimate.  Measurement noise
accumulates into drift, exactly the error a map merge must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DslamError
from repro.ros.messages import Feature

Pose = tuple[float, float, float]


def estimate_rigid_2d(
    source: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation R and translation t with target ~= R @ source + t.

    Standard 2-D Kabsch/Umeyama (without scale).  ``source`` and ``target``
    are ``(n, 2)``, or ``(k, n, 2)`` stacks solved as ``k`` independent
    problems; a stack makes the same per-matrix LAPACK/BLAS calls, so each
    solution is bit-identical to solving that problem alone.
    """
    if source.shape != target.shape or source.ndim not in (2, 3) or source.shape[-1] != 2:
        raise DslamError(
            f"point sets must both be (n, 2) or (k, n, 2); got {source.shape} and {target.shape}"
        )
    if source.shape[-2] < 2:
        raise DslamError("rigid estimation needs at least 2 correspondences")
    source_mean = source.mean(axis=-2)
    target_mean = target.mean(axis=-2)
    covariance = np.swapaxes(target - target_mean[..., None, :], -1, -2) @ (
        source - source_mean[..., None, :]
    )
    u, _, vt = np.linalg.svd(covariance)
    reflection = np.zeros(covariance.shape)
    reflection[..., 0, 0] = 1.0
    reflection[..., 1, 1] = np.sign(np.linalg.det(u @ vt))
    rotation = u @ reflection @ vt
    translation = target_mean - (rotation @ source_mean[..., None])[..., 0]
    return rotation, translation


def match_features(
    previous: tuple[Feature, ...],
    current: tuple[Feature, ...],
    ratio: float = 0.8,
) -> list[tuple[Feature, Feature]]:
    """Descriptor nearest-neighbour matching with Lowe's ratio test."""
    if not previous or not current:
        return []
    prev_desc = np.stack([feature.descriptor for feature in previous])
    curr_desc = np.stack([feature.descriptor for feature in current])
    similarity = prev_desc @ curr_desc.T  # unit descriptors: cosine
    order = np.argsort(-similarity, axis=1)
    best = order[:, 0]
    keep = np.ones(len(previous), dtype=bool)
    if len(current) > 1:
        rows = np.arange(len(previous))
        best_distance = 1.0 - similarity[rows, best]
        second_distance = 1.0 - similarity[rows, order[:, 1]]
        keep = ~((best_distance > ratio * second_distance) & (second_distance > 1e-9))
    return [(previous[row], current[best[row]]) for row in np.flatnonzero(keep)]


def draw_pairs(count: int, iterations: int, seed: int) -> np.ndarray:
    """The ``(iterations, 2)`` pairs of ``iterations`` successive
    ``rng.choice(count, size=2, replace=False)`` calls on
    ``np.random.default_rng(seed)``, from one block of raw 32-bit words.

    Each ``choice`` call takes three words: Floyd's algorithm draws the
    first index in ``[0, count-2]`` and the second in ``[0, count-1]``
    (a repeat of the first becomes ``count-1``), each the top half of
    Lemire's ``word * span``, and the two-element shuffle swaps the pair
    when the third word's top bit is 0.  Where the block cannot follow
    numpy's stream, the pairs come from the ``choice`` loop itself
    (:func:`_choice_pairs`): at ``count == 2`` (the first draw takes no
    word), at ``count >= 2**32`` (64-bit draws), and when a low half
    falls under Lemire's rejection threshold (numpy would draw again).
    """
    if 2 < count < 2**32:
        words = np.random.default_rng(seed).integers(
            0, 2**32, size=(iterations, 3), dtype=np.uint32
        )
        spans = np.array([count - 1, count], dtype=np.uint64)
        scaled = words[:, :2] * spans
        if not ((scaled & 0xFFFFFFFF) < 2**32 % spans).any():
            first, second = (scaled >> 32).astype(np.intp).T
            second[second == first] = count - 1
            swap = words[:, 2] < 2**31
            return np.stack(
                [np.where(swap, second, first), np.where(swap, first, second)], axis=1
            )
    return _choice_pairs(count, iterations, seed)


def _choice_pairs(count: int, iterations: int, seed: int) -> np.ndarray:
    """The pairs of :func:`draw_pairs`, one ``rng.choice`` call each."""
    rng = np.random.default_rng(seed)
    draws = [rng.choice(count, size=2, replace=False) for _ in range(iterations)]
    return np.array(draws, dtype=np.intp).reshape(-1, 2)


def ransac_rigid_2d(
    source: np.ndarray,
    target: np.ndarray,
    iterations: int = 32,
    inlier_threshold: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, t, inlier mask) robust to mismatches.

    Each of the ``iterations`` hypotheses fits the two correspondences of
    one pair of :func:`draw_pairs`; a draw whose source points coincide is
    skipped.  The consensus set is the inlier mask of the first hypothesis
    with the most inliers, or every correspondence when that holds fewer
    than 2 (or every draw was skipped); R and t are refit on it.
    """
    count = source.shape[0]
    if count < 2:
        raise DslamError("RANSAC needs at least 2 correspondences")
    picks = draw_pairs(count, iterations, seed)
    gap = source[picks[:, 0]] - source[picks[:, 1]]
    # |gap| as np.linalg.norm takes it, through one BLAS dot per row (a sum
    # of squares can round differently at the 1e-6 cut-off).
    spread = np.sqrt((gap[:, None, :] @ gap[:, :, None])[:, 0, 0])
    picks = picks[~(spread < 1e-6)]
    best_mask = np.zeros(count, dtype=bool)
    if len(picks):
        rotations, translations = estimate_rigid_2d(source[picks], target[picks])
        predicted = source @ np.swapaxes(rotations, 1, 2) + translations[:, None, :]
        masks = np.linalg.norm(target - predicted, axis=2) < inlier_threshold
        # argmax takes the first of equals.  A best mask with no inliers
        # falls to the all-correspondence fallback below either way.
        best_mask = masks[np.argmax(masks.sum(axis=1))]
    if best_mask.sum() < 2:
        best_mask = np.ones(count, dtype=bool)
    rotation, translation = estimate_rigid_2d(source[best_mask], target[best_mask])
    return rotation, translation, best_mask


def compose(pose: Pose, motion: Pose) -> Pose:
    """SE(2) composition: apply ``motion`` (in the robot frame) to ``pose``."""
    x, y, theta = pose
    dx, dy, dtheta = motion
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return (
        x + cos_t * dx - sin_t * dy,
        y + sin_t * dx + cos_t * dy,
        float(np.arctan2(np.sin(theta + dtheta), np.cos(theta + dtheta))),
    )


def transform_point(pose: Pose, point: tuple[float, float]) -> tuple[float, float]:
    """Robot-frame point -> world frame under ``pose``."""
    x, y, theta = pose
    px, py = point
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    return (x + cos_t * px - sin_t * py, y + sin_t * px + cos_t * py)


@dataclass
class VisualOdometry:
    """Integrates frame-to-frame motion; keeps an estimated landmark map."""

    start_pose: Pose = (0.0, 0.0, 0.0)
    min_matches: int = 4
    pose: Pose = field(init=False)
    num_frames: int = field(init=False, default=0)
    trajectory: list[Pose] = field(init=False, default_factory=list)
    #: Estimated world positions keyed by the matched feature's landmark id
    #: (used only for map merging, as a stand-in for the local point map).
    landmark_estimates: dict[int, tuple[float, float]] = field(init=False, default_factory=dict)
    _previous: tuple[Feature, ...] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.pose = self.start_pose

    def update(self, features: tuple[Feature, ...]) -> tuple[Pose, int]:
        """Advance the estimate with one frame's features.

        Returns (pose estimate, inlier count).
        """
        inliers = 0
        if self._previous is not None and features:
            matches = match_features(self._previous, features)
            if len(matches) >= self.min_matches:
                current_points = np.array([[m[1].x, m[1].y] for m in matches])
                previous_points = np.array([[m[0].x, m[0].y] for m in matches])
                # Motion of the robot between frames: current-frame points map
                # onto previous-frame points under the forward motion.
                rotation, translation, mask = ransac_rigid_2d(
                    current_points, previous_points, seed=self.num_frames
                )
                inliers = int(mask.sum())
                dtheta = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
                self.pose = compose(self.pose, (float(translation[0]), float(translation[1]), dtheta))
        self.num_frames += 1
        self.trajectory.append(self.pose)
        for feature in features:
            self.landmark_estimates[feature.landmark_id] = transform_point(
                self.pose, (feature.x, feature.y)
            )
        self._previous = features
        return self.pose, inliers
