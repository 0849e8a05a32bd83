"""Verification engine: runs every applicable pass and collects a Report.

Three entry points, in increasing scope:

* :func:`verify_program` — one instruction stream.  Structural rules always
  run; the replay (one walk through the buffer machine: buffer dataflow and
  checkpoint coverage), the DDR pass and the static WCIRL join in as the
  layer table / layout / hardware config are supplied.
* :func:`verify_network` — all three program variants of a
  :class:`~repro.compiler.compile.CompiledNetwork` with the right
  interruptibility expectations per variant, plus the armed-stretch
  interference analysis (``INT``) of the cached execution metadata against
  what each variant's replay found.
* :func:`verify_task_set` — several compiled networks meant to share the
  accelerator, adding the cross-task DDR aliasing proof (DDR002).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.hw.config import AcceleratorConfig
from repro.isa.program import Program
from repro.verify.bufferflow import Replay
from repro.verify.checkpoint import replay_pass
from repro.verify.ddr import cross_task_aliasing, ddr_pass
from repro.verify.diagnostics import Report
from repro.verify.interference import interference_pass
from repro.verify.structural import structural_pass
from repro.verify.wcirl import wcirl_pass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compiler -> isa)
    from repro.compiler.allocator import NetworkLayout
    from repro.compiler.compile import CompiledNetwork
    from repro.compiler.layer_config import LayerConfig


def verify_program(
    program: Program,
    *,
    config: AcceleratorConfig | None = None,
    layers: Mapping[int, "LayerConfig"] | None = None,
    layout: "NetworkLayout | None" = None,
    expect_interruptible: bool | None = None,
    max_response_cycles: int | None = None,
) -> Report:
    """Verify one program with every pass its inputs allow.

    ``expect_interruptible=None`` auto-detects: a program carrying virtual
    instructions is held to the interruptibility rules (WCL001).
    """
    report = Report()
    _run_passes(report, program, config, layers, layout, expect_interruptible, max_response_cycles)
    return report


def _run_passes(
    report: Report,
    program: Program,
    config: AcceleratorConfig | None,
    layers: Mapping[int, "LayerConfig"] | None,
    layout: "NetworkLayout | None",
    expect_interruptible: bool | None,
    max_response_cycles: int | None,
) -> Replay | None:
    """:func:`verify_program` into ``report``; hands back the replay record
    (``None`` when ``config`` / ``layers`` were not there to replay with)."""
    replay = None
    structural_pass(program, report, layers)
    if config is not None and layers is not None:
        replay = replay_pass(program, report, config, layers)
    if layers is not None and layout is not None:
        ddr_pass(program, report, layers, layout)
    if config is not None and layers is not None:
        if expect_interruptible is None:
            expect_interruptible = program.num_virtual() > 0
        wcirl_pass(
            program,
            report,
            config,
            layers,
            expect_interruptible=expect_interruptible,
            max_response_cycles=max_response_cycles,
        )
    return replay


def layer_table(compiled: "CompiledNetwork") -> dict[int, "LayerConfig"]:
    """layer_id -> config table of a compiled network."""
    return {layer.layer_id: layer for layer in compiled.layer_configs}


def verify_network(
    compiled: "CompiledNetwork", *, max_response_cycles: int | None = None
) -> Report:
    """Verify all program variants of one compiled network.

    The ``vi`` and ``layer`` variants must be interruptible (WCL001 and, if
    given, the ``max_response_cycles`` budget apply); the original-ISA
    ``none`` variant is exempt from the WCL expectations.
    """
    report = Report()
    layers = layer_table(compiled)
    replays: dict[str, Replay] = {}
    for vi_mode, program in compiled.programs.items():
        interruptible = vi_mode in ("vi", "layer")
        budget = max_response_cycles if interruptible else None
        replay = _run_passes(
            report, program, compiled.config, layers, compiled.layout, interruptible, budget
        )
        assert replay is not None  # config and layers were given
        replays[vi_mode] = replay
    # Armed-safe stretch analysis needs the compiled network (its cached
    # ProgramMeta is the artefact under test), so it runs at network scope.
    interference_pass(compiled, report, replays)
    return report


def verify_task_set(
    compiled_networks: Iterable["CompiledNetwork"],
    *,
    max_response_cycles: int | None = None,
) -> Report:
    """Verify a set of networks meant to share the accelerator.

    Each network is verified on its own, then the layouts are proven
    pairwise disjoint in DDR (DDR002) — the static form of the runtime
    ``InvariantMonitor`` guarantee.
    """
    report = Report()
    layouts: dict[str, "NetworkLayout"] = {}
    for compiled in compiled_networks:
        report.extend(
            verify_network(compiled, max_response_cycles=max_response_cycles)
        )
        label = compiled.graph.name
        suffix = 2
        while label in layouts:  # same network compiled twice (e.g. two bases)
            label = f"{compiled.graph.name}#{suffix}"
            suffix += 1
        layouts[label] = compiled.layout
    cross_task_aliasing(layouts, report)
    return report
