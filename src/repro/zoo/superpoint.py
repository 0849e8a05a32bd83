"""SuperPoint (DeTone et al. 2018) — the paper's feature-point extractor (FE).

SuperPoint is a VGG-style shared encoder followed by two heads:

* a *detector* head emitting a 65-channel keypoint heat-map (8x8 cells + dustbin),
* a *descriptor* head emitting a 256-channel semi-dense descriptor map.

The paper runs the backbone + heads on the CNN accelerator and the
post-processing (softmax over cells, NMS, descriptor sampling) on
dedicated logic / CPU; our equivalent of that post-processing lives in
:mod:`repro.dslam.frontend`.

A single 480x640 inference is ~39 GOPs per the SuperPoint paper, which
this model reproduces (within a few percent, since the released network's
exact head resolution varies with padding choices).
"""

from __future__ import annotations

from repro.nn import GraphBuilder, NetworkGraph, TensorShape

#: VGG-style encoder plan: conv channel counts with 2x2 pools between scales.
_ENCODER = ((64, 64), (64, 64), (128, 128), (128, 128))

#: Detector head: 65 = 8*8 cell positions + 1 "no keypoint" dustbin channel.
DETECTOR_CHANNELS = 65

#: Descriptor head output dimensionality.
DESCRIPTOR_DIM = 256


def build_superpoint(
    input_shape: TensorShape = TensorShape(480, 640, 1),
    head: str = "detector",
) -> NetworkGraph:
    """Build SuperPoint up to one head.

    The accelerator executes a single instruction stream per network, so the
    compiler treats the two heads as two networks sharing an encoder
    architecture; ``head`` picks which one ("detector", "descriptor", or
    "both" to keep the full two-head DAG for analysis).
    """
    if head not in ("detector", "descriptor", "both"):
        raise ValueError(f"head must be 'detector', 'descriptor' or 'both', got {head!r}")
    builder = GraphBuilder(f"superpoint_{head}", input_shape=input_shape)
    for scale, (width_a, width_b) in enumerate(_ENCODER, start=1):
        builder.conv(f"conv{scale}a", out_channels=width_a, kernel=3, padding=1)
        builder.conv(f"conv{scale}b", out_channels=width_b, kernel=3, padding=1)
        if scale < len(_ENCODER):
            builder.pool(f"pool{scale}", kernel=2, stride=2)
    encoder_out = builder.tail

    if head in ("detector", "both"):
        builder.conv("det_conv", out_channels=256, kernel=3, padding=1, after=encoder_out)
        builder.conv("det_logits", out_channels=DETECTOR_CHANNELS, kernel=1, relu=False)
    if head in ("descriptor", "both"):
        builder.conv("desc_conv", out_channels=256, kernel=3, padding=1, after=encoder_out)
        builder.conv("desc_raw", out_channels=DESCRIPTOR_DIM, kernel=1, relu=False)
    if head == "both":
        # Two sinks are fine for analysis but not for compilation; merge them
        # is deliberately NOT done — callers compile single-head variants.
        return NetworkGraph.from_layers(builder.name, list(builder._layers))
    return builder.build()


def build_superpoint_qqvga() -> NetworkGraph:
    """The detector head at 120x160, as the SuperPoint demo runs on embedded
    targets (the FE of A3 and of the benchmarks)."""
    return build_superpoint(TensorShape(120, 160, 1), head="detector")


def superpoint_cell_size() -> int:
    """Down-sampling factor between image and detector-head cells (8)."""
    return 2 ** (len(_ENCODER) - 1)
