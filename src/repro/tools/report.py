"""One-shot network report: compile + schedule + latency + roofline + energy.

The "tell me everything about deploying this model on this accelerator"
command::

    python -m repro.tools.report --model resnet18 --config big

Prints: compile summary, per-layer schedule shape, interrupt-latency profile
(VI vs layer-by-layer), roofline breakdown, and an energy estimate.
"""

from __future__ import annotations

import argparse

from repro.analysis.latency import whole_program_profile
from repro.analysis.roofline import roofline_report
from repro.compiler.compile import CompiledNetwork, compile_network
from repro.hw.config import AcceleratorConfig
from repro.hw.energy import inference_energy
from repro.interrupt.base import LAYER_BY_LAYER, VIRTUAL_INSTRUCTION
from repro.nn import TensorShape

#: Named model factories the CLI accepts.
MODELS = {
    "tiny_cnn": lambda: _zoo().build_tiny_cnn(),
    "tiny_residual": lambda: _zoo().build_tiny_residual(),
    "resnet18": lambda: _zoo().build_resnet("resnet18", TensorShape(120, 160, 3)),
    "resnet50": lambda: _zoo().build_resnet("resnet50", TensorShape(120, 160, 3)),
    "mobilenet": lambda: _zoo().build_mobilenet_v1(TensorShape(224, 224, 3)),
    "darknet19": lambda: _zoo().build_darknet19(TensorShape(224, 224, 3)),
    "superpoint": lambda: _zoo().build_superpoint(TensorShape(120, 160, 1)),
    "vgg16": lambda: _zoo().build_vgg("vgg16", TensorShape(120, 160, 3)),
}

CONFIGS = {
    "big": AcceleratorConfig.big,
    "small": AcceleratorConfig.small,
    "example": AcceleratorConfig.worked_example,
}


def _zoo():
    from repro import zoo

    return zoo


def network_report(compiled: CompiledNetwork) -> str:
    """The full multi-section report for one compiled network."""
    from repro.accel.runner import run_program

    sections = [compiled.report()]

    run = run_program(compiled, vi_mode="vi", functional=False)
    clock = compiled.config.clock
    sections.append(
        f"\nruntime: {run.total_cycles} cycles = "
        f"{clock.cycles_to_ms(run.total_cycles):.2f} ms per inference "
        f"({1000.0 / clock.cycles_to_ms(run.total_cycles):.1f} fps)"
    )

    vi = whole_program_profile(compiled, VIRTUAL_INSTRUCTION)
    layer = whole_program_profile(compiled, LAYER_BY_LAYER)
    sections.append(
        "\ninterrupt response latency (uniform arrival):\n"
        f"  virtual-instruction : mean {vi.mean_us(compiled):.1f} us, "
        f"worst {vi.worst_us(compiled):.1f} us\n"
        f"  layer-by-layer      : mean {layer.mean_us(compiled):.1f} us, "
        f"worst {layer.worst_us(compiled):.1f} us\n"
        f"  reduction           : {100 * vi.mean_cycles / layer.mean_cycles:.1f} % "
        f"of the layer-by-layer mean"
    )

    sections.append("\n" + roofline_report(compiled).format(top=10))
    sections.append("\n" + inference_energy(compiled, run.total_cycles).format())
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=sorted(MODELS), default="resnet18")
    parser.add_argument("--config", choices=sorted(CONFIGS), default="big")
    args = parser.parse_args(argv)

    graph = MODELS[args.model]()
    config = CONFIGS[args.config]()
    compiled = compile_network(graph, config, weights="zeros", verify="off")
    print(network_report(compiled))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
