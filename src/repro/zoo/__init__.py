"""Model zoo: the paper's workloads plus small test networks.

The zoo's names live here too: :data:`MODELS` (the report and verifier
CLIs' model names) and :func:`build_graph` (a farm service's model name).
"""

from collections.abc import Callable

from repro.errors import SchedulerError
from repro.nn import NetworkGraph, TensorShape
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

#: Named model factories the report and verifier CLIs accept.
MODELS: dict[str, Callable[[], NetworkGraph]] = {
    "tiny_cnn": build_tiny_cnn,
    "tiny_residual": build_tiny_residual,
    "resnet18": lambda: build_resnet("resnet18", TensorShape(120, 160, 3)),
    "resnet50": lambda: build_resnet("resnet50", TensorShape(120, 160, 3)),
    "mobilenet": lambda: build_mobilenet_v1(TensorShape(224, 224, 3)),
    "darknet19": lambda: build_darknet19(TensorShape(224, 224, 3)),
    "superpoint": lambda: build_superpoint(TensorShape(120, 160, 1)),
    "vgg16": lambda: build_vgg("vgg16", TensorShape(120, 160, 3)),
}


def build_graph(model: str) -> NetworkGraph:
    """Resolve a builder suffix (``"tiny_cnn"`` → :func:`build_tiny_cnn`)
    to its network graph at the builder's default shape."""
    builder: Callable[[], NetworkGraph] | None = globals().get(f"build_{model}")
    if builder is None or builder is build_graph:
        raise SchedulerError(f"unknown zoo model {model!r}")
    return builder()


__all__ = [
    "GEM_DESCRIPTOR_DIM",
    "MODELS",
    "DESCRIPTOR_DIM",
    "DETECTOR_CHANNELS",
    "build_darknet19",
    "build_gem",
    "build_graph",
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
