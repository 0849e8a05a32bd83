#!/usr/bin/env python
"""Inspect what the INCA compiler produces for a network.

Shows, for a chosen model:

* the per-layer schedule (tiles / stripes / CalcBlobs),
* the original vs VI-ISA instruction mix,
* a disassembly of the first layer including the inserted virtual
  instructions (compare with the paper's Fig. "interexample"),
* where the interrupt points fall and what each would back up / recover.

Run:  python examples/compile_inspect.py [--model tiny_cnn|superpoint|resnet18]
"""

from __future__ import annotations

import argparse

from repro import AcceleratorConfig, compile_network
from repro.nn import TensorShape
from repro.tables import format_table
from repro.zoo import build_resnet, build_superpoint, build_tiny_cnn


def build(model: str):
    if model == "tiny_cnn":
        return build_tiny_cnn()
    if model == "superpoint":
        return build_superpoint(TensorShape(120, 160, 1), head="detector")
    if model == "resnet18":
        return build_resnet("resnet18", TensorShape(120, 160, 3))
    raise SystemExit(f"unknown model {model!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="tiny_cnn",
                        choices=["tiny_cnn", "superpoint", "resnet18"])
    args = parser.parse_args()

    config = AcceleratorConfig.big()
    graph = build(args.model)
    compiled = compile_network(graph, config, weights="zeros")
    print(compiled.report())

    # Per-layer schedule summary.
    rows = []
    for layer, plan in zip(compiled.layer_configs, compiled.plans):
        stripes = sum(len(tile.stripes) for tile in plan.tiles)
        rows.append(
            [
                layer.name,
                layer.kind,
                str(layer.out_shape),
                len(plan.tiles),
                stripes,
                plan.num_blobs(),
                plan.num_saves(),
            ]
        )
    print()
    print(format_table(
        ["layer", "kind", "out shape", "tiles", "stripes", "CalcBlobs", "SAVEs"],
        rows,
        title="per-layer schedule",
    ))

    # Instruction mix.
    print()
    for mode in ("none", "vi", "layer"):
        program = compiled.program_for(mode)
        histogram = program.opcode_histogram()
        mix = ", ".join(
            f"{opcode.name}={count}" for opcode, count in sorted(histogram.items())
        )
        print(f"{mode:>6}: {len(program):6d} instructions  ({mix})")

    # Disassembly of the first layer with virtual instructions highlighted.
    program = compiled.program
    first, last = program.layer_span(0)
    print(f"\nVI-ISA disassembly of layer 0 ({compiled.layer_configs[0].name}), "
          f"instructions [{first}, {min(last, first + 40)}):")
    for index in range(first, min(last, first + 40)):
        instruction = program[index]
        marker = " <- interrupt point" if (instruction.is_virtual and instruction.is_switch_point) else ""
        virtual = "*" if instruction.is_virtual else " "
        print(f"  {index:5d} {virtual} {instruction}{marker}")


if __name__ == "__main__":
    main()
