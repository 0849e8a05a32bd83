"""End-to-end compilation driver.

``compile_network`` reproduces the paper's Fig. 1(c) pipeline:

1. quantize the model (synthetic weights stand in for the trained Caffe model),
2. allocate the DDR layout,
3. lower topology + quantization to the original ISA (a word array),
4. run the virtual-instruction pass (an insert into that array),

yielding a :class:`CompiledNetwork` holding the DDR image, the layer-config
table and three program variants: ``"none"`` (original ISA), ``"vi"`` (the
paper's VI-ISA) and ``"layer"`` (the layer-by-layer interrupt baseline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

import numpy as np

from repro.compiler.allocator import NetworkLayout, allocate_network
from repro.compiler.cache import CompileCache, cache_key, default_cache
from repro.compiler.layer_config import LayerConfig
from repro.compiler.lowering import build_layer_configs, lower_network
from repro.compiler.tiling import LayerPlan, plan_layer
from repro.compiler.vi_pass import (
    DEFAULT_VI_POLICY,
    ViPolicy,
    insert_layer_barriers,
    insert_virtual_instructions,
)
from repro.compiler.weights import LayerQuantization, initialize_parameters
from repro.errors import CompileError
from repro.hw.config import AcceleratorConfig
from repro.isa.program import Program
from repro.isa.validate import validate_program
from repro.nn.graph import NetworkGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iau.fastpath import ProgramMeta

#: Program variants a compile produces.
VI_MODES = ("none", "vi", "layer")


@dataclass
class CompiledNetwork:
    """Everything needed to run one network on the simulated accelerator."""

    graph: NetworkGraph
    config: AcceleratorConfig
    layout: NetworkLayout
    layer_configs: list[LayerConfig]
    quantization: dict[str, LayerQuantization]
    programs: dict[str, Program]
    #: The static description of each program variant, ``vi_mode ->
    #: ProgramMeta``: filled on first use by :meth:`meta`, pickled with the
    #: network, and stored in (hence warm from) the on-disk compile cache.
    metas: dict[str, ProgramMeta] = field(default_factory=dict, repr=False)
    _configs_by_id: dict[int, LayerConfig] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._configs_by_id = {cfg.layer_id: cfg for cfg in self.layer_configs}

    # -- program access ----------------------------------------------------

    @property
    def program(self) -> Program:
        """The interruptible VI-ISA program (the paper's deployment artefact)."""
        return self.programs["vi"]

    def program_for(self, vi_mode: str) -> Program:
        if vi_mode not in self.programs:
            raise CompileError(f"unknown vi_mode {vi_mode!r}; choose from {VI_MODES}")
        return self.programs[vi_mode]

    def variant_of(self, program: Program) -> str | None:
        """The vi-mode under which ``program`` *is* (by identity) one of this
        network's variants, or ``None`` for a hand-built program."""
        for vi_mode, candidate in self.programs.items():
            if candidate is program:
                return vi_mode
        return None

    def layer_config(self, layer_id: int) -> LayerConfig:
        try:
            return self._configs_by_id[layer_id]
        except KeyError:
            raise CompileError(
                f"network {self.graph.name!r} has no layer id {layer_id}"
            ) from None

    @property
    def plans(self) -> list[LayerPlan]:
        """The tiling plan of every layer, derived when read: a millisecond
        function of ``(config, layer_configs)`` that only tiling inspection
        looks at, so it is neither kept nor stored."""
        return [plan_layer(self.config, layer) for layer in self.layer_configs]

    # -- static description ------------------------------------------------

    def meta(self, vi_mode: str) -> ProgramMeta:
        """Fast-path metadata of the ``vi_mode`` variant on this network's
        accelerator (see :mod:`repro.iau.fastpath`): built on first use,
        then shared by every system simulating the same workload."""
        meta = self.metas.get(vi_mode)
        if meta is None:
            # Deferred (fastpath imports the core, which imports the
            # compiler's types) and looked up on the module at call time.
            from repro.iau import fastpath

            meta = fastpath.build_program_meta(self, self.program_for(vi_mode))
            self.metas[vi_mode] = meta
        return meta

    def execution_meta(self, program: Program) -> ProgramMeta:
        """:meth:`meta` of the variant ``program`` is.  A hand-built program
        is priced when asked and not kept."""
        vi_mode = self.variant_of(program)
        if vi_mode is not None:
            return self.meta(vi_mode)
        from repro.iau import fastpath

        return fastpath.build_program_meta(self, program)

    def cached_mode_meta(self, vi_mode: str) -> ProgramMeta | None:
        """The ``vi_mode`` variant's meta if it has been built (in this
        process, or before the network was pickled / stored), else ``None``.

        A peek that never triggers the O(n) precomputation — consumers that
        only *prefer* the meta (the cycle estimator) use it to avoid
        building one they would read a single field of.
        """
        return self.metas.get(vi_mode)

    # -- host-side I/O -------------------------------------------------------

    @property
    def input_region(self) -> str:
        return self.layout.input_region

    @property
    def output_region(self) -> str:
        return self.layout.feature_regions[self.graph.output_layer.name]

    def set_input(self, data: np.ndarray) -> None:
        """Write an int8 HWC input feature map into DDR."""
        region = self.layout.ddr.region(self.input_region)
        data = np.asarray(data)
        if data.shape != region.array.shape:
            raise CompileError(
                f"input shape {data.shape} does not match network input "
                f"{region.array.shape}"
            )
        region.array[...] = data.astype(np.int8)

    def get_output(self) -> np.ndarray:
        """Read the network output feature map back from DDR."""
        return self.layout.ddr.region(self.output_region).array.copy()

    # -- reporting -------------------------------------------------------------

    def report(self) -> str:
        vi = self.programs["vi"]
        original = self.programs["none"]
        lines = [
            f"compiled {self.graph.name!r} for {self.config.name}",
            f"  layers on accelerator : {len(self.layer_configs)}",
            f"  original instructions : {len(original)}",
            f"  VI-ISA instructions   : {len(vi)} "
            f"(+{len(vi) - len(original)} virtual, "
            f"{100.0 * (len(vi) - len(original)) / len(original):.1f}%)",
            f"  interrupt points      : {vi.num_virtual()}",
            f"  DDR footprint         : {self.layout.ddr.used_bytes / 1024 / 1024:.1f} MiB",
        ]
        return "\n".join(lines)


def compile_network(
    graph: NetworkGraph,
    config: AcceleratorConfig,
    base_addr: int = 0,
    weights: str = "random",
    seed: int = 0,
    vi_policy: ViPolicy = DEFAULT_VI_POLICY,
    weight_percentile: float = 99.9,
    verify: str = "structural",
    cache: "CompileCache | Literal[False] | None" = None,
) -> CompiledNetwork:
    """Compile ``graph`` for ``config``.

    ``weights='random'`` generates and quantizes seeded synthetic weights
    (needed for functional simulation); ``weights='zeros'`` skips generation
    for timing-only experiments.  ``base_addr`` offsets every DDR region so
    multiple compiled networks can share one address space.  ``vi_policy``
    controls interrupt-position selection (default: every legal point).

    ``verify`` selects the static-verification gate: ``"structural"`` (the
    default) runs the program-shape rules, ``"full"`` additionally runs the
    abstract-interpretation passes of :mod:`repro.verify` over the compiled
    artefact, and ``"off"`` skips verification entirely.  Violations raise
    :class:`~repro.errors.ProgramError` carrying the full diagnostics report.

    ``cache`` is a :class:`~repro.compiler.cache.CompileCache`: a hit skips
    the whole pipeline (including verification — the artefact was verified
    under the same mode when it was stored; the mode is part of the key),
    a miss compiles as usual and stores the result.  The default ``None``
    uses the directory named by ``REPRO_COMPILE_CACHE`` when set; pass
    ``False`` to force a fresh compile even then.
    """
    if verify not in ("off", "structural", "full"):
        raise CompileError(
            f"unknown verify mode {verify!r}; choose 'off', 'structural' or 'full'"
        )
    if cache is None:
        cache = default_cache()
    elif cache is False:
        cache = None
    key = ""
    start = 0.0
    if cache is not None:
        key = cache_key(
            graph,
            config,
            base_addr=base_addr,
            weights=weights,
            seed=seed,
            vi_policy=vi_policy,
            weight_percentile=weight_percentile,
            verify_mode=verify,
        )
        start = time.perf_counter()
        hit = cache.load(key)
        if hit is not None:
            cache.note_hit(
                key,
                graph=graph.name,
                config=config.name,
                seconds=time.perf_counter() - start,
            )
            return hit
    layout = allocate_network(graph, base_addr=base_addr)
    quantization = initialize_parameters(
        graph, layout, mode=weights, seed=seed, percentile=weight_percentile
    )
    layer_configs = build_layer_configs(graph, layout, quantization)
    if not layer_configs:
        raise CompileError(f"network {graph.name!r} has no accelerator layers")
    original = lower_network(config, layer_configs, layout)

    programs = {
        "none": Program.from_words(f"{graph.name}.orig", original),
        "vi": Program.from_words(
            f"{graph.name}.vi", insert_virtual_instructions(original, vi_policy)
        ),
        "layer": Program.from_words(
            f"{graph.name}.layer", insert_layer_barriers(original)
        ),
    }
    if verify == "structural":
        for program in programs.values():
            validate_program(program)
    compiled = CompiledNetwork(
        graph=graph,
        config=config,
        layout=layout,
        layer_configs=layer_configs,
        quantization=quantization,
        programs=programs,
    )
    if verify == "full":
        # Imported lazily: repro.verify is a downstream consumer of the
        # compiler's types and must not be a hard import dependency here.
        from repro.verify.engine import verify_network

        verify_network(compiled).raise_if_errors()
    if cache is not None:
        stored = cache.store(key, compiled) is not None
        cache.note_miss(
            key,
            graph=graph.name,
            config=config.name,
            seconds=time.perf_counter() - start,
            stored=stored,
        )
    return compiled
