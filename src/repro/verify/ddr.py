"""DDR region analysis (DDR001-DDR003).

The instruction stream addresses DDR by region base address while the layer
configs address it by region name; both must agree, every transfer must fit
inside its region, and — across a *task set* — no two tasks' regions may
alias.  The cross-task check is the static counterpart of the runtime
``InvariantMonitor``: instead of watching DMA bursts it proves, from the
layouts alone, that a preempting task can never corrupt the preempted task's
tensors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.verify.diagnostics import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> isa)
    from repro.compiler.allocator import NetworkLayout
    from repro.compiler.layer_config import LayerConfig
    from repro.hw.ddr import DdrRegion


def ddr_pass(
    program: Program,
    report: Report,
    layers: Mapping[int, "LayerConfig"],
    layout: "NetworkLayout",
) -> None:
    """Check every transfer's address and bounds against the layout."""
    for index, instruction in enumerate(program):
        layer = layers.get(instruction.layer_id)
        if layer is None:
            continue  # PRG004 (structural) already reported it
        region_name = _expected_region(instruction, layer)
        if region_name is _NOT_A_TRANSFER:
            continue
        if region_name is None:
            report.add(
                "DDR001",
                f"{instruction.opcode.name} for layer {layer.name!r} but the "
                f"layer config declares no region for that operand",
                program=program.name,
                index=index,
                hint="the layer-config table and the instruction stream must "
                "come from the same compile",
            )
            continue
        try:
            region = layout.ddr.region(region_name)
        except Exception:
            report.add(
                "DDR001",
                f"layer {layer.name!r} names region {region_name!r} which the "
                f"layout never allocated",
                program=program.name,
                index=index,
            )
            continue
        if instruction.ddr_addr != region.base:
            report.add(
                "DDR001",
                f"{instruction.opcode.name} addresses {instruction.ddr_addr:#x} "
                f"but region {region_name!r} is based at {region.base:#x}",
                program=program.name,
                index=index,
                hint="instructions carry region base addresses; a stale or "
                "relocated layout leaves dangling ddr_addr values",
            )
        limit = region.size
        extent = repr(region_name)
        if instruction.opcode in (Opcode.LOAD_W, Opcode.VIR_LOAD_W) and (
            layer.bias_region is not None
        ):
            # The first weight chunk of a biased layer bursts the bias words
            # too; the allocator places the bias region contiguously after
            # the weights, so the legal extent spans both.
            try:
                limit += layout.ddr.region(layer.bias_region).size
                extent = f"{region_name!r}+{layer.bias_region!r}"
            except Exception:
                pass  # unallocated bias region: bound against the weights alone
        if instruction.length > limit:
            report.add(
                "DDR003",
                f"{instruction.opcode.name} moves {instruction.length} bytes but "
                f"{extent} holds only {limit}",
                program=program.name,
                index=index,
                hint="an overlong DMA burst would spill into the neighbouring "
                "region",
            )


#: Sentinel distinguishing "not a DMA opcode" from "operand region missing".
_NOT_A_TRANSFER = "__not_a_transfer__"


def _expected_region(instruction: Instruction, layer: "LayerConfig") -> str | None:
    opcode = instruction.opcode
    if opcode in (Opcode.LOAD_D, Opcode.VIR_LOAD_D):
        return layer.input2_region if instruction.operand_b else layer.input_region
    if opcode in (Opcode.LOAD_W, Opcode.VIR_LOAD_W):
        return layer.weight_region
    if opcode in (Opcode.SAVE, Opcode.VIR_SAVE):
        if opcode == Opcode.SAVE and instruction.chs == 0:
            return _NOT_A_TRANSFER  # a free SAVE moves nothing
        return layer.output_region
    return _NOT_A_TRANSFER


def cross_task_aliasing(
    layouts: Mapping[str, "NetworkLayout"], report: Report
) -> None:
    """DDR002: prove the tasks' DDR regions are pairwise disjoint.

    ``layouts`` maps a task label (usually the network name) to its layout.
    Regions belonging to the *same* task never alias by construction (the
    bump allocator), so only cross-task pairs are compared.
    """
    intervals: list[tuple[str, "DdrRegion"]] = []
    for task, layout in layouts.items():
        for region in layout.ddr.regions():
            intervals.append((task, region))
    intervals.sort(key=lambda item: item[1].base)
    for i, (task_a, region_a) in enumerate(intervals):
        for task_b, region_b in intervals[i + 1 :]:
            if region_b.base >= region_a.end:
                break  # sorted by base: nothing later can overlap region_a
            if task_a == task_b:
                continue
            report.add(
                "DDR002",
                f"task {task_a!r} region {region_a.name!r} "
                f"[{region_a.base:#x}, {region_a.end:#x}) overlaps task "
                f"{task_b!r} region {region_b.name!r} "
                f"[{region_b.base:#x}, {region_b.end:#x})",
                program=task_a,
                hint="compile each task with a disjoint base_addr; a preempting "
                "task writing this range would corrupt the preempted task's "
                "tensors",
            )
