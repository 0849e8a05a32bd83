"""DSLAM host-geometry oracle: the per-item loops the array passes replaced.

RANSAC and its pair draws, landmark visibility, camera capture,
descriptor matching and keypoint NMS, verbatim from when each walked one
hypothesis, pair, landmark, row or candidate at a time.  Reference only:
nothing in ``src/`` calls this module, and nothing here imports the
functions it checks; the Kabsch solve the RANSAC loop uses is a copy
too, so agreement with ``repro.dslam.vo``/``world``/``camera``/``frontend``
is agreement between two derivations (``tests/test_dslam_geometry.py``
holds them bit-equal).
"""

from __future__ import annotations

import numpy as np

from repro.dslam.camera import Camera
from repro.dslam.world import Landmark, World
from repro.ros.messages import CameraFrame, Feature, Header


def estimate_rigid_2d(
    source: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """2-D Kabsch on one ``(n, 2)`` pair of point sets."""
    source_mean = source.mean(axis=0)
    target_mean = target.mean(axis=0)
    covariance = (target - target_mean).T @ (source - source_mean)
    u, _, vt = np.linalg.svd(covariance)
    det = np.linalg.det(u @ vt)
    rotation = u @ np.diag([1.0, float(np.sign(det))]) @ vt
    translation = target_mean - rotation @ source_mean
    return rotation, translation


def choice_pairs(count: int, iterations: int, seed: int) -> np.ndarray:
    """One ``rng.choice(count, 2, replace=False)`` call per pair."""
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
    """One hypothesis per iteration; strictly more inliers replaces the best."""
    count = source.shape[0]
    rng = np.random.default_rng(seed)
    best_mask = np.zeros(count, dtype=bool)
    for _ in range(iterations):
        pick = rng.choice(count, size=2, replace=False)
        if np.linalg.norm(source[pick[0]] - source[pick[1]]) < 1e-6:
            continue
        rotation, translation = estimate_rigid_2d(source[pick], target[pick])
        residuals = np.linalg.norm(target - (source @ rotation.T + translation), axis=1)
        mask = residuals < inlier_threshold
        if mask.sum() > best_mask.sum():
            best_mask = mask
    if best_mask.sum() < 2:
        best_mask = np.ones(count, dtype=bool)
    rotation, translation = estimate_rigid_2d(source[best_mask], target[best_mask])
    return rotation, translation, best_mask


def match_features(
    previous: tuple[Feature, ...],
    current: tuple[Feature, ...],
    ratio: float = 0.8,
) -> list[tuple[Feature, Feature]]:
    """One argsort and ratio test per previous-frame feature."""
    if not previous or not current:
        return []
    prev_desc = np.stack([feature.descriptor for feature in previous])
    curr_desc = np.stack([feature.descriptor for feature in current])
    similarity = prev_desc @ curr_desc.T
    matches = []
    for row, feature in enumerate(previous):
        order = np.argsort(-similarity[row])
        best = order[0]
        if len(order) > 1:
            best_distance = 1.0 - similarity[row, best]
            second_distance = 1.0 - similarity[row, order[1]]
            if best_distance > ratio * second_distance and second_distance > 1e-9:
                continue
        matches.append((feature, current[best]))
    return matches


def visible_from(
    world: World,
    pose: tuple[float, float, float],
    max_range: float,
    fov: float,
) -> list[Landmark]:
    """Range and bearing of one landmark at a time."""
    x, y, theta = pose
    visible = []
    for landmark in world.landmarks.values():
        dx = landmark.x - x
        dy = landmark.y - y
        distance = float(np.hypot(dx, dy))
        if distance > max_range or distance < 1e-6:
            continue
        bearing = np.arctan2(dy, dx) - theta
        bearing = np.arctan2(np.sin(bearing), np.cos(bearing))
        if abs(bearing) <= fov / 2:
            visible.append(landmark)
    return visible


def capture(
    camera: Camera,
    pose: tuple[float, float, float],
    seq: int,
    stamp_cycles: int,
    frame_id: str = "",
) -> CameraFrame:
    """Three ``rng.normal`` calls per visible landmark, on ``camera``'s
    generator."""
    visible = visible_from(camera.world, pose, camera.config.max_range, camera.config.fov)
    observations: dict[int, tuple[float, float]] = {}
    descriptors: dict[int, np.ndarray] = {}
    x, y, theta = pose
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    for landmark in visible:
        dx = landmark.x - x
        dy = landmark.y - y
        local_x = cos_t * dx + sin_t * dy + camera._rng.normal(0, camera.config.position_noise)
        local_y = -sin_t * dx + cos_t * dy + camera._rng.normal(0, camera.config.position_noise)
        observations[landmark.landmark_id] = (float(local_x), float(local_y))
        noisy = landmark.descriptor + camera._rng.normal(
            0, camera.config.descriptor_noise, size=landmark.descriptor.shape
        )
        descriptors[landmark.landmark_id] = noisy / np.linalg.norm(noisy)
    return CameraFrame(
        header=Header(seq=seq, stamp_cycles=stamp_cycles, frame_id=frame_id),
        observations=observations,
        descriptors=descriptors,
        true_pose=pose,
    )


def non_maximum_suppression(candidates: list[Feature], radius: float) -> list[Feature]:
    """Distances from each candidate to the features kept so far."""
    ordered = sorted(candidates, key=lambda feature: -feature.score)
    kept: list[Feature] = []
    if not ordered:
        return kept
    positions = np.empty((0, 2))
    for feature in ordered:
        point = np.array([feature.x, feature.y])
        if positions.shape[0]:
            distances = np.linalg.norm(positions - point, axis=1)
            if float(distances.min()) < radius:
                continue
        kept.append(feature)
        positions = np.vstack([positions, point])
    return kept
