"""Place-recognition quality evaluation: precision/recall over thresholds.

Builds a labelled benchmark of place-descriptor pairs from the world model
(positive = the two frames' true poses are within ``positive_distance``) and
sweeps the match threshold, producing the precision/recall curve that
justifies the operating point the DSLAM system uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dslam.camera import Camera, CameraConfig, perimeter_trajectory
from repro.dslam.place_recognition import PlaceEncoder
from repro.dslam.world import World
from repro.errors import DslamError
from repro.tables import format_table


@dataclass(frozen=True)
class ThresholdPoint:
    """Precision/recall at one similarity threshold."""

    threshold: float
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        proposed = self.true_positives + self.false_positives
        return self.true_positives / proposed if proposed else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        denominator = self.precision + self.recall
        return 2 * self.precision * self.recall / denominator if denominator else 0.0


@dataclass(frozen=True)
class PrCurve:
    """The full sweep plus the benchmark's composition."""

    points: list[ThresholdPoint]
    num_pairs: int
    num_positive_pairs: int

    def best_f1(self) -> ThresholdPoint:
        return max(self.points, key=lambda point: point.f1)

    def operating_point(self, threshold: float) -> ThresholdPoint:
        candidates = [p for p in self.points if p.threshold <= threshold]
        if not candidates:
            raise DslamError(f"no sweep point at or below threshold {threshold}")
        return max(candidates, key=lambda point: point.threshold)

    def format(self) -> str:
        rows = [
            [
                f"{point.threshold:.2f}",
                f"{point.precision * 100:.1f}%",
                f"{point.recall * 100:.1f}%",
                f"{point.f1:.3f}",
            ]
            for point in self.points
        ]
        return format_table(
            ["threshold", "precision", "recall", "F1"],
            rows,
            title=(
                f"place-recognition sweep over {self.num_pairs} cross-agent pairs "
                f"({self.num_positive_pairs} positives)"
            ),
        )


def evaluate_place_recognition(
    world: World,
    num_frames: int = 60,
    positive_distance: float = 3.0,
    thresholds: tuple[float, ...] = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9),
    camera: CameraConfig | None = None,
    seed: int = 0,
) -> PrCurve:
    """Two synthetic passes over the arena; score all cross-pass pairs."""
    camera = camera or CameraConfig()
    encoder = PlaceEncoder()
    passes = []
    for pass_index in range(2):
        cam = Camera(world, camera, seed=seed + pass_index)
        poses = perimeter_trajectory(
            world,
            num_frames,
            speed=2 * (world.config.width + world.config.height) * 20.0 / num_frames / 2,
            start_fraction=0.01 * pass_index,
        )
        entries = []
        for seq, pose in enumerate(poses):
            frame = cam.capture(pose, seq, 0)
            entries.append((pose, encoder.encode(frame)))
        passes.append(entries)

    pairs = []
    for pose_a, code_a in passes[0]:
        for pose_b, code_b in passes[1]:
            distance = float(np.hypot(pose_a[0] - pose_b[0], pose_a[1] - pose_b[1]))
            similarity = float(code_a @ code_b)
            pairs.append((distance <= positive_distance, similarity))
    positives = sum(1 for is_positive, _ in pairs if is_positive)
    if positives == 0:
        raise DslamError("benchmark contains no positive pairs; lengthen the passes")

    points = []
    for threshold in sorted(thresholds):
        true_positives = sum(
            1 for is_positive, s in pairs if is_positive and s >= threshold
        )
        false_positives = sum(
            1 for is_positive, s in pairs if not is_positive and s >= threshold
        )
        false_negatives = positives - true_positives
        points.append(
            ThresholdPoint(
                threshold=threshold,
                true_positives=true_positives,
                false_positives=false_positives,
                false_negatives=false_negatives,
            )
        )
    return PrCurve(points=points, num_pairs=len(pairs), num_positive_pairs=positives)
