"""Model zoo: the paper's workloads plus small test networks."""

from repro.zoo.darknet import build_darknet19
from repro.zoo.gem import GEM_DESCRIPTOR_DIM, build_gem
from repro.zoo.mobilenet import build_mobilenet_v1
from repro.zoo.resnet import build_resnet, build_resnet101
from repro.zoo.superpoint import (
    DESCRIPTOR_DIM,
    DETECTOR_CHANNELS,
    build_superpoint,
    build_superpoint_qqvga,
    superpoint_cell_size,
)
from repro.zoo.tiny import (
    build_medium_layer_net,
    build_tiny_cnn,
    build_tiny_conv,
    build_tiny_residual,
)
from repro.zoo.vgg import build_vgg, build_vgg16

__all__ = [
    "GEM_DESCRIPTOR_DIM",
    "DESCRIPTOR_DIM",
    "DETECTOR_CHANNELS",
    "build_darknet19",
    "build_gem",
    "build_medium_layer_net",
    "build_mobilenet_v1",
    "build_resnet",
    "build_resnet101",
    "build_superpoint",
    "build_superpoint_qqvga",
    "build_tiny_cnn",
    "build_tiny_conv",
    "build_tiny_residual",
    "build_vgg",
    "build_vgg16",
    "superpoint_cell_size",
]
