"""Synthetic exploration world (the AirSim substitute).

The paper's hardware-in-the-loop setup renders "a simple rectangle area with
four different pillars, and some chairs at the center" in AirSim.  This
module builds the same scene abstractly: a rectangular arena whose walls,
pillars and central furniture carry visual *landmarks* — points with an
appearance descriptor.  The camera model projects whichever landmarks are in
view; everything downstream (FE, VO, PR, map merge) consumes only those
projections, which is exactly what the real pipeline extracts from pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DslamError

#: Dimensionality of a landmark's appearance descriptor.
LANDMARK_DESCRIPTOR_DIM = 16


@dataclass(frozen=True)
class Landmark:
    """One visual landmark: a world position plus an appearance vector."""

    landmark_id: int
    x: float
    y: float
    descriptor: np.ndarray

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class WorldConfig:
    """Scene parameters (a 40 x 30 m arena like the paper's test area)."""

    width: float = 40.0
    height: float = 30.0
    wall_landmarks: int = 120
    pillar_landmarks: int = 12
    chair_landmarks: int = 24
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise DslamError("world dimensions must be positive")


@dataclass
class World:
    """The landmark map of the arena."""

    config: WorldConfig
    landmarks: dict[int, Landmark] = field(default_factory=dict)
    #: ``landmarks`` as (tuple, x column, y column, descriptor matrix or
    #: None): :meth:`columns` builds the first three on first use and
    #: :meth:`descriptors` the matrix; :meth:`_add` drops all four.
    _columns: tuple[tuple[Landmark, ...], np.ndarray, np.ndarray, np.ndarray | None] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )

    @classmethod
    def generate(cls, config: WorldConfig | None = None) -> "World":
        """Build the arena: wall points, four corner pillars, central chairs."""
        config = config or WorldConfig()
        rng = np.random.default_rng(config.seed)
        world = cls(config=config)
        width, height = config.width, config.height

        # Wall landmarks: evenly spread along the rectangle's perimeter.
        perimeter = 2 * (width + height)
        for index in range(config.wall_landmarks):
            distance = perimeter * index / config.wall_landmarks
            world._add(rng, *_perimeter_point(distance, width, height))

        # Four pillars near the corners (the "four different pillars").
        pillar_centers = [
            (width * 0.2, height * 0.2),
            (width * 0.8, height * 0.2),
            (width * 0.8, height * 0.8),
            (width * 0.2, height * 0.8),
        ]
        per_pillar = max(1, config.pillar_landmarks // 4)
        for cx, cy in pillar_centers:
            for _ in range(per_pillar):
                angle = rng.uniform(0, 2 * np.pi)
                world._add(rng, cx + 0.5 * np.cos(angle), cy + 0.5 * np.sin(angle))

        # Chairs at the center (the white-box cluster).
        for _ in range(config.chair_landmarks):
            world._add(
                rng,
                width * 0.5 + rng.normal(0, 1.5),
                height * 0.5 + rng.normal(0, 1.5),
            )
        return world

    def _add(self, rng: np.random.Generator, x: float, y: float) -> None:
        descriptor = rng.normal(size=LANDMARK_DESCRIPTOR_DIM)
        descriptor /= np.linalg.norm(descriptor)
        landmark_id = len(self.landmarks)
        self.landmarks[landmark_id] = Landmark(landmark_id, float(x), float(y), descriptor)
        self._columns = None

    def __len__(self) -> int:
        return len(self.landmarks)

    def columns(self) -> tuple[tuple[Landmark, ...], np.ndarray, np.ndarray]:
        """``landmarks`` in order, with their x and y columns."""
        if self._columns is None:
            landmarks = tuple(self.landmarks.values())
            self._columns = (
                landmarks,
                np.array([landmark.x for landmark in landmarks]),
                np.array([landmark.y for landmark in landmarks]),
                None,
            )
        return self._columns[:3]

    def descriptors(self) -> np.ndarray:
        """The landmarks' descriptors as one matrix, a row per landmark in
        :meth:`columns` order."""
        matrix = None if self._columns is None else self._columns[3]
        if matrix is None:
            landmarks, xs, ys = self.columns()
            matrix = np.stack([landmark.descriptor for landmark in landmarks])
            self._columns = (landmarks, xs, ys, matrix)
        return matrix

    def in_view(
        self,
        pose: tuple[float, float, float],
        max_range: float,
        fov: float,
    ) -> np.ndarray:
        """Ascending :meth:`columns` indices of the landmarks within range
        and field of view of ``pose`` = (x, y, theta)."""
        _, xs, ys = self.columns()
        x, y, theta = pose
        dx = xs - x
        dy = ys - y
        distance = np.hypot(dx, dy)
        bearing = np.arctan2(dy, dx) - theta
        bearing = np.arctan2(np.sin(bearing), np.cos(bearing))
        in_view = ~((distance > max_range) | (distance < 1e-6)) & (np.abs(bearing) <= fov / 2)
        return np.flatnonzero(in_view)

    def visible_from(
        self,
        pose: tuple[float, float, float],
        max_range: float,
        fov: float,
    ) -> list[Landmark]:
        """Landmarks within range and field of view of ``pose`` = (x, y, theta),
        in landmark order."""
        landmarks = self.columns()[0]
        return [landmarks[index] for index in self.in_view(pose, max_range, fov).tolist()]


def _perimeter_point(distance: float, width: float, height: float) -> tuple[float, float]:
    """Point at arc-length ``distance`` along the rectangle perimeter (CCW)."""
    if distance < width:
        return distance, 0.0
    distance -= width
    if distance < height:
        return width, distance
    distance -= height
    if distance < width:
        return width - distance, height
    distance -= width
    return 0.0, height - distance
