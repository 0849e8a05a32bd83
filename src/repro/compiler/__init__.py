"""Compiler: graph -> DDR layout -> original ISA -> VI-ISA."""

from repro.compiler.allocator import NetworkLayout, allocate_network
from repro.compiler.cache import (
    CACHE_ENV_VAR,
    CacheEntry,
    CacheStats,
    CompileCache,
    cache_key,
    compiler_fingerprint,
    default_cache,
)
from repro.compiler.compile import VI_MODES, CompiledNetwork, compile_network
from repro.compiler.layer_config import LAYER_KINDS, LayerConfig
from repro.compiler.lowering import build_layer_configs, lower_network
from repro.compiler.report import ProgramStats, program_stats
from repro.compiler.tiling import (
    GroupPlan,
    LayerPlan,
    SectionPlan,
    StripePlan,
    TilePlan,
    plan_layer,
)
from repro.compiler.vi_pass import (
    DEFAULT_VI_POLICY,
    ViPolicy,
    insert_layer_barriers,
    insert_virtual_instructions,
)
from repro.compiler.weights import (
    ACTIVATION_FRAC_BITS,
    DEFAULT_SHIFT,
    LayerQuantization,
    initialize_parameters,
)

__all__ = [
    "ACTIVATION_FRAC_BITS",
    "CACHE_ENV_VAR",
    "CacheEntry",
    "CacheStats",
    "CompileCache",
    "CompiledNetwork",
    "cache_key",
    "compiler_fingerprint",
    "default_cache",
    "DEFAULT_SHIFT",
    "DEFAULT_VI_POLICY",
    "ViPolicy",
    "GroupPlan",
    "LAYER_KINDS",
    "LayerConfig",
    "LayerPlan",
    "LayerQuantization",
    "NetworkLayout",
    "ProgramStats",
    "SectionPlan",
    "StripePlan",
    "TilePlan",
    "VI_MODES",
    "allocate_network",
    "build_layer_configs",
    "compile_network",
    "initialize_parameters",
    "insert_layer_barriers",
    "insert_virtual_instructions",
    "lower_network",
    "plan_layer",
    "program_stats",
]
