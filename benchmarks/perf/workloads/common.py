"""Pieces several workloads share: graph building and compile spans."""

from __future__ import annotations

from typing import Any

import repro.compiler.compile as compile_module
import repro.iau.fastpath as fastpath_module
import repro.zoo as zoo
from repro.compiler.cache import CompileCache
from repro.nn import TensorShape

#: Span around a whole ``compile_network`` / ``compile_tasks`` call.
COMPILE_SPAN = "compiler.compile"

#: Public compiler functions wrapped during a traced compile, so the
#: phases inside ``compile_network`` show up as child spans.  Each is
#: patched where ``compile_network`` looks it up.
COMPILE_TARGETS = (
    (compile_module, "allocate_network", "compiler.allocate_s"),
    (compile_module, "initialize_parameters", "compiler.weights_s"),
    (compile_module, "build_layer_configs", "compiler.lower_s"),
    (compile_module, "lower_network", "compiler.lower_s"),
    (compile_module, "insert_virtual_instructions", "compiler.vi_pass_s"),
    (compile_module, "insert_layer_barriers", "compiler.vi_pass_s"),
    (compile_module, "validate_program", "verify.structural_s"),
    (fastpath_module, "build_program_meta", "iau.fastpath.meta_build_s"),
    (CompileCache, "store", "compiler.cache.store_s"),
)

_COMPILE_PHASES = (
    "compiler.graph_build_s",
    "compiler.allocate_s",
    "compiler.weights_s",
    "compiler.lower_s",
    "compiler.vi_pass_s",
    "verify.structural_s",
    "iau.fastpath.meta_build_s",
    "compiler.cache.store_s",
)


def build_graph(kind: str, variant: str, hw: tuple[int, int]) -> Any:
    """One zoo network at a given input resolution."""
    height, width = hw
    if kind == "gem":
        return zoo.build_gem(TensorShape(height, width, 3), backbone=variant)
    if kind == "resnet":
        return zoo.build_resnet(variant, TensorShape(height, width, 3))
    if kind == "mobilenet_v1":
        return zoo.build_mobilenet_v1(TensorShape(height, width, 3))
    if kind == "superpoint":
        return zoo.build_superpoint(TensorShape(height, width, 1), head="detector")
    raise ValueError(f"unknown network kind {kind!r}")


def compile_layers(durations: dict[str, float], instructions: int) -> dict[str, float]:
    """Per-layer compile metrics from one traced compile's span durations.

    ``compiler.compile_uncached_s`` is derived: the whole compile call
    minus the cache store (which nests the meta precompute when a cache is
    attached), i.e. what the same call costs with ``cache=False``.
    """
    layers = {name: durations[name] for name in _COMPILE_PHASES if name in durations}
    if COMPILE_SPAN in durations:
        store = durations.get("compiler.cache.store_s", 0.0)
        layers["compiler.compile_uncached_s"] = durations[COMPILE_SPAN] - store
    layers["compiler.instructions"] = instructions
    meta = durations.get("iau.fastpath.meta_build_s")
    if meta:
        layers["iau.fastpath.meta_instr_per_s"] = instructions / meta
    return layers


def job_records(jobs: Any) -> list[list[int]]:
    """``(request, start, complete)`` of each completed job, in order."""
    return [[job.request_cycle, job.start_cycle, job.complete_cycle] for job in jobs]
