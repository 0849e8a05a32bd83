"""Compiler workloads: ``compile_cold`` and ``cache_warm_start``.

One layer used two ways.  ``compile_cold`` pays the whole miss path —
lower, tile, VI pass, structural verify, ``ProgramMeta`` precompute and
the cache *write*.  ``cache_warm_start`` pays the *read* path on the same
four keys.  A cache-format change that makes loads cheaper by making
stores dearer (or the reverse) moves the two in opposite directions, which
is the trade this pair exists to expose.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from typing import Any

from benchmarks.perf.harness import Workload
from benchmarks.perf.workloads.common import (
    COMPILE_SPAN,
    COMPILE_TARGETS,
    build_graph,
    compile_layers,
)
from repro.accel.runner import run_program
from repro.compiler import VI_MODES, CompileCache, cache_key, compile_network
from repro.estimate import estimate_service_cycles
from repro.farm.node import clear_compile_memo
from repro.hw.config import AcceleratorConfig
from repro.verify.engine import verify_network


def _cache_counters(cache: CompileCache) -> dict[str, float]:
    stats = cache.stats
    lookups = stats.hits + stats.misses
    return {
        "compiler.cache.hits": stats.hits,
        "compiler.cache.misses": stats.misses,
        "compiler.cache.corrupt": stats.corrupt,
        "compiler.cache.hit_ratio": stats.hits / lookups if lookups else 0.0,
    }


class _FourNets(Workload):
    """Set-up shared by the pair: build the graphs named in the sizes."""

    def build_graphs(self) -> None:
        self.config = AcceleratorConfig.big()
        with self.ctx.span("compiler.graph_build_s"):
            self.graphs = [build_graph(*net) for net in self.sizes["nets"]]

    def key(self, graph: Any) -> str:
        """The key ``compile_network(graph, config, weights="zeros")`` uses."""
        return cache_key(graph, self.config, weights="zeros")


@dataclass
class _ColdPass:
    cache: CompileCache
    nets: list[Any] = field(default_factory=list)
    store_bytes: int = 0


class CompileCold(_FourNets):
    name = "compile_cold"
    root_span = "compiler.cold_pass"

    def setup(self) -> None:
        self.build_graphs()
        #: Program bytes of the first pass, hashed: later passes must match.
        self.first: list[list[str]] | None = None
        self.cycles: dict[str, int] | None = None

    def rep(self) -> _ColdPass:
        out = _ColdPass(CompileCache(self.ctx.fresh_dir("cold-cache")))
        with self.ctx.patched(COMPILE_TARGETS):
            for graph in self.graphs:
                with self.ctx.span(COMPILE_SPAN):
                    out.nets.append(
                        compile_network(
                            graph, self.config, weights="zeros", cache=out.cache
                        )
                    )
        return out

    def check(self, out: _ColdPass) -> tuple[int, int]:
        """Every key missed, compiled, and left a readable entry that names
        the artefact; a later pass emits the same program bytes as the first."""
        emitted = [
            [
                hashlib.sha256(net.program_for(mode).to_bytes()).hexdigest()
                for mode in VI_MODES
            ]
            for net in out.nets
        ]
        if self.first is None:
            self.first = emitted
        failed = 0
        for graph, net, now, first in zip(self.graphs, out.nets, emitted, self.first):
            entry = out.cache.probe(self.key(graph))
            if entry is None or entry.instructions != len(net.program) or now != first:
                failed += 1
            else:
                out.store_bytes += entry.payload_bytes
        stats = out.cache.stats
        if (stats.misses, stats.stores, stats.hits) != (len(self.graphs),) * 2 + (0,):
            failed = len(self.graphs)
        shutil.rmtree(out.cache.root, ignore_errors=True)
        return len(self.graphs), failed

    def observe(self, out: _ColdPass) -> dict[str, float]:
        if self.cycles is None:
            # Timing-only and deterministic, so once per run is enough.
            self.cycles = {
                mode: sum(
                    run_program(net, mode, functional=False).total_cycles
                    for net in out.nets
                )
                for mode in ("vi", "none")
            }
        return {
            "work": sum(len(net.program) for net in out.nets),
            "sim_final_cycles": self.cycles["vi"],
            "vi_degradation_pct": 100.0
            * (self.cycles["vi"] / self.cycles["none"] - 1.0),
        }

    def layers(self, durations: dict[str, float], out: _ColdPass) -> dict[str, float]:
        layers = compile_layers(durations, sum(len(net.program) for net in out.nets))
        layers.update(_cache_counters(out.cache))
        layers["compiler.cache.store_bytes"] = out.store_bytes
        return layers

    def setup_layers(self, durations: dict[str, float]) -> dict[str, float]:
        return {"compiler.graph_build_s": durations["compiler.graph_build_s"]}

    def probes(self, wall_s: float) -> dict[str, float]:
        """The abstract-interpretation passes (``verify="full"``) on the
        two small programs."""
        nets = [
            compile_network(graph, self.config, weights="zeros", cache=False)
            for graph in self.graphs
        ]
        small = sorted(nets, key=lambda net: len(net.program))[:2]
        start = time.perf_counter()
        found = sum(len(verify_network(net)) for net in small)
        return {
            "verify.full_s": time.perf_counter() - start,
            "verify.diagnostics": found,
        }


class CacheWarmStart(_FourNets):
    name = "cache_warm_start"
    root_span = "compiler.warm_pass"

    def setup(self) -> None:
        """Compile fresh (the byte oracle) and populate a new directory."""
        self.build_graphs()
        self.root = self.ctx.fresh_dir("warm-cache")
        cache = CompileCache(self.root)
        start = time.perf_counter()
        fresh = [
            compile_network(graph, self.config, weights="zeros", cache=False)
            for graph in self.graphs
        ]
        self.compile_uncached_s = time.perf_counter() - start
        for graph, net in zip(self.graphs, fresh):
            cache.store(self.key(graph), net)
        self.golden_bytes = [net.program_for("vi").to_bytes() for net in fresh]
        self.golden_cycles = [
            estimate_service_cycles(self.config, net) for net in fresh
        ]

    def rep(self) -> tuple[CompileCache, list[Any], list[Any], list[int]]:
        clear_compile_memo()
        cache = CompileCache(self.root)
        programs, metas, cycles = [], [], []
        for graph in self.graphs:
            with self.ctx.span("compiler.cache.load_s"):
                net = compile_network(
                    graph, self.config, weights="zeros", cache=cache
                )
            with self.ctx.span("compiler.cache.hydrate_s"):
                programs.append(net.program_for("vi"))
            with self.ctx.span("compiler.cache.meta_peek_s"):
                metas.append(net.cached_mode_meta("vi"))
                cycles.append(estimate_service_cycles(self.config, net))
        return cache, programs, metas, cycles

    def check(self, out: Any) -> tuple[int, int]:
        """Every key hit, the hydrated program is byte-identical to the
        fresh compile, and the cycle estimate came from the stored meta."""
        cache, programs, metas, cycles = out
        failed = sum(
            1
            for program, meta, estimate, golden, expected in zip(
                programs, metas, cycles, self.golden_bytes, self.golden_cycles
            )
            if meta is None or estimate != expected or program.to_bytes() != golden
        )
        if (cache.stats.hits, cache.stats.misses) != (len(self.graphs), 0):
            failed = len(self.graphs)
        return len(self.graphs), failed

    def observe(self, out: Any) -> dict[str, float]:
        _, programs, _, cycles = out
        return {
            "work": sum(len(program) for program in programs),
            "sim_final_cycles": sum(cycles),
        }

    def layers(self, durations: dict[str, float], out: Any) -> dict[str, float]:
        load = durations["compiler.cache.load_s"]
        hydrate = durations["compiler.cache.hydrate_s"]
        layers = {
            "compiler.cache.load_s": load,
            "compiler.cache.hydrate_s": hydrate,
            "compiler.cache.meta_peek_s": durations["compiler.cache.meta_peek_s"],
            # Base = compiling the same four graphs with cache=False.
            "compiler.cache.load_vs_compile": (load + hydrate)
            / self.compile_uncached_s,
            "compiler.compile_uncached_s": self.compile_uncached_s,
        }
        layers.update(_cache_counters(out[0]))
        return layers
