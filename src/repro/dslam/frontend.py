"""Feature extraction (FE): the SuperPoint-equivalent front end.

In the paper, SuperPoint's CNN backbone runs on the accelerator and the
post-processing (cell softmax, non-maximum suppression, descriptor sampling)
runs on a dedicated FPGA block.  Here the *timing* of the backbone comes from
the compiled SuperPoint program on the simulated accelerator (driven by the
FE node); this module supplies the *content* pipeline: keypoint scoring and
NMS over the frame's landmark observations, yielding the features VO
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ros.messages import CameraFrame, Feature


@dataclass(frozen=True)
class FrontendConfig:
    """Post-processing parameters (the SuperPoint defaults, scaled to meters).

    The timing fields model the paper's dedicated FE post-processing block
    (cell softmax + NMS + descriptor sampling) running at 200 MHz on the PL
    side — a few microseconds per frame, i.e. negligible next to the CNN.
    """

    max_features: int = 120
    nms_radius: float = 0.6
    min_score: float = 0.05
    #: Detector-head cell size (image pixels per cell, SuperPoint: 8).
    cell_size: int = 8
    #: Post-processing block cycles spent per detector cell.
    cycles_per_cell: int = 6
    #: Clock of the post-processing block (paper: 200 MHz).
    postproc_clock_hz: float = 200e6

    def postprocessing_cycles(self, image_h: int, image_w: int, accel_clock_hz: float) -> int:
        """Post-processing latency expressed in *accelerator* clock cycles."""
        cells = max(1, (image_h // self.cell_size) * (image_w // self.cell_size))
        seconds = cells * self.cycles_per_cell / self.postproc_clock_hz
        return int(round(seconds * accel_clock_hz))


class FeatureExtractor:
    """Score + NMS over a frame's observations (SuperPoint post-processing)."""

    def __init__(self, config: FrontendConfig | None = None):
        self.config = config or FrontendConfig()

    def extract(self, frame: CameraFrame) -> tuple[Feature, ...]:
        """Detect up to ``max_features`` well-separated keypoints."""
        candidates = []
        for landmark_id, (x, y) in frame.observations.items():
            score = _keypoint_score(landmark_id, frame.header.seq)
            if score < self.config.min_score:
                continue
            candidates.append(
                Feature(
                    landmark_id=landmark_id,
                    x=x,
                    y=y,
                    score=score,
                    descriptor=frame.descriptors[landmark_id],
                )
            )
        kept = _non_maximum_suppression(candidates, self.config.nms_radius)
        return tuple(kept[: self.config.max_features])


def _keypoint_score(landmark_id: int, seq: int) -> float:
    """Deterministic per-(landmark, frame) detector confidence in [0, 1).

    A small integer hash stands in for the detector head's cell softmax; it
    varies across frames so NMS outcomes are not frozen, but is reproducible.
    """
    state = (landmark_id * 2654435761 + seq * 40503) & 0xFFFFFFFF
    state ^= state >> 16
    state = (state * 2246822519) & 0xFFFFFFFF
    state ^= state >> 13
    return (state & 0xFFFF) / 65536.0


def _non_maximum_suppression(candidates: list[Feature], radius: float) -> list[Feature]:
    """Greedy NMS: keep the strongest feature within each ``radius`` ball.

    In score order, a feature is kept unless a feature kept before it lies
    closer than ``radius``; the kept features come back in that order.
    """
    ordered = sorted(candidates, key=lambda feature: -feature.score)
    positions = np.array([(feature.x, feature.y) for feature in ordered]).reshape(-1, 2)
    close = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2) < radius
    kept: list[Feature] = []
    suppressed = np.zeros(len(ordered), dtype=bool)
    for index, feature in enumerate(ordered):
        if not suppressed[index]:
            kept.append(feature)
            suppressed |= close[index]
    return kept
