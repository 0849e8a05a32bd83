"""Camera model and agent trajectories.

The camera "renders" a frame by projecting visible landmarks into the robot
frame with measurement noise — the geometric content a real FE network would
recover from pixels.  Trajectories walk the arena perimeter (the two agents
go opposite ways, so they revisit each other's places, which is what gives
the PR module something to match).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dslam.world import World
from repro.errors import DslamError
from repro.ros.messages import CameraFrame, Header

Pose = tuple[float, float, float]


@dataclass(frozen=True)
class CameraConfig:
    """Sensor parameters."""

    fov: float = np.pi * 2 / 3
    max_range: float = 14.0
    position_noise: float = 0.03
    descriptor_noise: float = 0.05
    fps: float = 20.0


class Camera:
    """Projects world landmarks into noisy robot-frame observations."""

    def __init__(self, world: World, config: CameraConfig | None = None, seed: int = 0) -> None:
        self.world = world
        self.config = config or CameraConfig()
        self._rng = np.random.default_rng(seed)

    def capture(self, pose: Pose, seq: int, stamp_cycles: int, frame_id: str = "") -> CameraFrame:
        """One frame: every visible landmark observed in the robot frame.

        The noise is one ``standard_normal((visible, 2 + dim))`` block,
        each row a landmark's x, y and descriptor noise in the order
        per-landmark ``rng.normal`` calls drew them, scaled as ``normal``
        scales (``0 + scale * z``); so a frame's bits and the generator's
        state after it are those of the per-landmark draws.
        """
        index = self.world.in_view(pose, self.config.max_range, self.config.fov)
        observations: dict[int, tuple[float, float]] = {}
        descriptors: dict[int, np.ndarray] = {}
        if len(index):
            landmarks, xs, ys = self.world.columns()
            position_noise = _scale(self.config.position_noise)
            descriptor_noise = _scale(self.config.descriptor_noise)
            appearance = self.world.descriptors()[index]
            z = self._rng.standard_normal((len(index), 2 + appearance.shape[1]))
            x, y, theta = pose
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            dx = xs[index] - x
            dy = ys[index] - y
            local_x = cos_t * dx + sin_t * dy + (0.0 + position_noise * z[:, 0])
            local_y = -sin_t * dx + cos_t * dy + (0.0 + position_noise * z[:, 1])
            noisy = appearance + (0.0 + descriptor_noise * z[:, 2:])
            # |row| as np.linalg.norm takes it, through one BLAS dot per row.
            norms = np.sqrt((noisy[:, None, :] @ noisy[:, :, None])[:, 0, 0])
            unit = noisy / norms[:, None]
            for position, local, descriptor in zip(
                index.tolist(), zip(local_x.tolist(), local_y.tolist()), unit
            ):
                landmark_id = landmarks[position].landmark_id
                observations[landmark_id] = local
                descriptors[landmark_id] = descriptor
        return CameraFrame(
            header=Header(seq=seq, stamp_cycles=stamp_cycles, frame_id=frame_id),
            observations=observations,
            descriptors=descriptors,
            true_pose=pose,
        )


def _scale(scale: float) -> float:
    """``scale`` as ``rng.normal`` accepts it: a negative (or -0.0) scale is
    refused with numpy's ``ValueError``, a NaN passes."""
    if np.signbit(scale) and not np.isnan(scale):
        raise ValueError("scale < 0")
    return scale


def perimeter_trajectory(
    world: World,
    num_frames: int,
    fps: float = 20.0,
    speed: float = 1.5,
    inset: float = 4.0,
    start_fraction: float = 0.0,
    clockwise: bool = False,
) -> list[Pose]:
    """Per-frame poses walking a rectangular loop inset from the walls.

    ``start_fraction`` offsets the starting point along the loop;
    ``clockwise`` reverses direction (the second agent uses both so the two
    robots traverse the same places at different times).
    """
    if num_frames <= 0:
        raise DslamError("trajectory needs at least one frame")
    width = world.config.width - 2 * inset
    height = world.config.height - 2 * inset
    if width <= 0 or height <= 0:
        raise DslamError("inset leaves no room to drive")
    perimeter = 2 * (width + height)
    step = speed / fps
    poses: list[Pose] = []
    for frame in range(num_frames):
        distance = (start_fraction * perimeter + frame * step) % perimeter
        if clockwise:
            distance = perimeter - distance
        x, y, heading = _loop_point(distance, width, height)
        if clockwise:
            heading += np.pi
        poses.append((x + inset, y + inset, float(np.arctan2(np.sin(heading), np.cos(heading)))))
    return poses


def _loop_point(distance: float, width: float, height: float) -> tuple[float, float, float]:
    """Position + heading at arc length ``distance`` along the CCW loop."""
    if distance < width:
        return distance, 0.0, 0.0
    distance -= width
    if distance < height:
        return width, distance, np.pi / 2
    distance -= height
    if distance < width:
        return width - distance, height, np.pi
    distance -= width
    return 0.0, height - distance, -np.pi / 2


def frame_period_cycles(clock_hz: float, fps: float) -> int:
    """Camera frame period expressed in accelerator cycles."""
    if fps <= 0:
        raise DslamError("fps must be positive")
    return int(round(clock_hz / fps))
