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
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler.allocator import NetworkLayout, allocate_network
from repro.compiler.layer_config import LayerConfig
from repro.compiler.lowering import build_layer_configs, lower_network
from repro.compiler.tiling import LayerPlan
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
    from repro.compiler.cache import CompileCache

#: Program variants a compile produces.
VI_MODES = ("none", "vi", "layer")


@dataclass
class CompiledNetwork:
    """Everything needed to run one network on the simulated accelerator."""

    graph: NetworkGraph
    config: AcceleratorConfig
    layout: NetworkLayout
    layer_configs: list[LayerConfig]
    plans: list[LayerPlan]
    quantization: dict[str, LayerQuantization]
    programs: dict[str, Program]
    _configs_by_id: dict[int, LayerConfig] = field(init=False)
    _meta_cache: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._configs_by_id = {cfg.layer_id: cfg for cfg in self.layer_configs}
        self._meta_cache = {}
        #: Mode-keyed ProgramMeta table, filled by the on-disk compile
        #: cache at load time.  Unlike ``_meta_cache`` it is keyed by
        #: vi-mode name, not program identity, so consumers can read
        #: precomputed totals by name.
        self._mode_metas = {}

    # -- program access ----------------------------------------------------

    @property
    def program(self) -> Program:
        """The interruptible VI-ISA program (the paper's deployment artefact)."""
        return self.programs["vi"]

    def program_for(self, vi_mode: str) -> Program:
        if vi_mode not in self.programs:
            raise CompileError(f"unknown vi_mode {vi_mode!r}; choose from {VI_MODES}")
        return self.programs[vi_mode]

    def layer_config(self, layer_id: int) -> LayerConfig:
        try:
            return self._configs_by_id[layer_id]
        except KeyError:
            raise CompileError(
                f"network {self.graph.name!r} has no layer id {layer_id}"
            ) from None

    def execution_meta(self, program: Program):
        """Fast-path metadata of ``program`` on this network's accelerator.

        Built lazily and cached for the lifetime of the *program*, so every
        system simulating the same workload shares one O(n) precomputation
        (see :mod:`repro.iau.fastpath`).  The cache holds weak references:
        when a program dies, its entry (and the ``ProgramMeta`` it pinned)
        is evicted, so transient programs cannot accumulate — and an id
        reused by the allocator can never alias a dead entry.
        """
        entry = self._meta_cache.get(id(program))
        if entry is not None and entry[0]() is program:
            return entry[1]
        from repro.iau.fastpath import build_program_meta

        meta = build_program_meta(self, program)
        self.prime_execution_meta(program, meta)
        return meta

    def cached_execution_meta(self, program: Program):
        """The already-built/primed meta of ``program``, or ``None``.

        A peek that never triggers the O(n) precomputation — consumers that
        only *prefer* the meta (e.g. the cycle estimator) use this to avoid
        building one they would use a single field of.
        """
        entry = self._meta_cache.get(id(program))
        if entry is not None and entry[0]() is program:
            return entry[1]
        return None

    def cached_mode_meta(self, vi_mode: str):
        """The stored meta of the ``vi_mode`` variant, or ``None``.

        Served from the mode-keyed table the on-disk compile cache fills at
        load time — the peek behind O(1) warm-start cycle estimates (see
        :func:`~repro.estimate.estimate_service_cycles`).
        """
        return self._mode_metas.get(vi_mode)

    def prime_execution_meta(self, program: Program, meta) -> None:
        """Install precomputed fast-path metadata for ``program``.

        Used by the on-disk compile cache to make ``execution_meta`` warm
        from the first job of a fresh process; also the sole writer of the
        internal meta cache.
        """
        key = id(program)
        cache = self._meta_cache

        def _evict(ref: weakref.ref) -> None:
            entry = cache.get(key)
            # Only drop the entry this ref owns: by the time the callback
            # runs, the id may already name a different, live program.
            if entry is not None and entry[0] is ref:
                del cache[key]

        cache[key] = (weakref.ref(program, _evict), meta)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Weak references and the id-keyed caches do not survive a process
        # boundary; both rebuild cheaply (or are re-primed by the cache).
        state = dict(self.__dict__)
        state.pop("_meta_cache", None)
        state.pop("_configs_by_id", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._configs_by_id = {cfg.layer_id: cfg for cfg in self.layer_configs}
        self._meta_cache = {}
        self.__dict__.setdefault("_mode_metas", {})

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

    def num_interrupt_points(self) -> int:
        return self.program.num_virtual()

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
    validate: bool = True,
    vi_policy: ViPolicy = DEFAULT_VI_POLICY,
    weight_percentile: float = 99.9,
    verify: str | None = None,
    cache: "CompileCache | bool | None" = None,
) -> CompiledNetwork:
    """Compile ``graph`` for ``config``.

    ``weights='random'`` generates and quantizes seeded synthetic weights
    (needed for functional simulation); ``weights='zeros'`` skips generation
    for timing-only experiments.  ``base_addr`` offsets every DDR region so
    multiple compiled networks can share one address space.  ``vi_policy``
    controls interrupt-position selection (default: every legal point).

    ``verify`` selects the static-verification gate: ``"structural"`` runs
    the program-shape rules (the default when ``validate`` is true),
    ``"full"`` additionally runs the abstract-interpretation passes of
    :mod:`repro.verify` over the compiled artefact, and ``"off"`` skips
    verification entirely.  When ``verify`` is given it overrides the legacy
    ``validate`` flag.  Violations raise :class:`~repro.errors.ProgramError`
    carrying the full diagnostics report.

    ``cache`` is a :class:`~repro.compiler.cache.CompileCache`: a hit skips
    the whole pipeline (including verification — the artefact was verified
    under the same mode when it was stored; the mode is part of the key),
    a miss compiles as usual and stores the result.  The default ``None``
    uses the directory named by ``REPRO_COMPILE_CACHE`` when set; pass
    ``False`` to force a fresh compile even then.
    """
    mode = verify if verify is not None else ("structural" if validate else "off")
    if mode not in ("off", "structural", "full"):
        raise CompileError(
            f"unknown verify mode {mode!r}; choose 'off', 'structural' or 'full'"
        )
    if cache is None:
        from repro.compiler.cache import default_cache

        cache = default_cache()
    elif cache is False:
        cache = None
    key = ""
    start = 0.0
    if cache is not None:
        from repro.compiler.cache import cache_key

        key = cache_key(
            graph,
            config,
            base_addr=base_addr,
            weights=weights,
            seed=seed,
            vi_policy=vi_policy,
            weight_percentile=weight_percentile,
            verify_mode=mode,
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
    original, plans = lower_network(config, layer_configs, layout)

    programs = {
        "none": Program.from_words(f"{graph.name}.orig", original),
        "vi": Program.from_words(
            f"{graph.name}.vi", insert_virtual_instructions(original, vi_policy)
        ),
        "layer": Program.from_words(
            f"{graph.name}.layer", insert_layer_barriers(original)
        ),
    }
    if mode == "structural":
        for program in programs.values():
            validate_program(program)
    compiled = CompiledNetwork(
        graph=graph,
        config=config,
        layout=layout,
        layer_configs=layer_configs,
        plans=plans,
        quantization=quantization,
        programs=programs,
    )
    if mode == "full":
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
