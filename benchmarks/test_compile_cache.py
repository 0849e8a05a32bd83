"""Cross-process warm start: a multi-process farm day, cold vs warm cache.

The compiled VI-ISA program is a static deployment artefact, so a farm
binary that starts fresh (new process, nothing in memory) should pay the
compile cost at most once per artefact *ever*, not once per process.  This
benchmark runs the same heavy farm day repeatedly, each run in its own
fresh Python process (so no in-process memo can leak warmth between runs):

* **uncached** — no cache directory configured: every config compiles.
* **cold**     — ``REPRO_COMPILE_CACHE`` points at an emptied directory:
  every compile misses, stores, and pays the write cost too.
* **warm**     — same directory, now populated: every compile is an
  artefact load.

Every mode runs twice (the directory is re-emptied before every cold
attempt) and the timing comparison takes the fastest attempt per mode;
every attempt, fast or slow, must still be bit-identical.

Headline claims — none of them depends on how fast the compiler is (a
warm-vs-cold *ratio* floor did: it started failing the day lowering got 2-3x
cheaper, with the cache no slower than before):

* the warm day compiles nothing and stores nothing — every lookup is a hit —
  and is faster than the uncached day;
* the warm run is bit-identical to the uncached run — same
  :class:`~repro.farm.metrics.FarmReport`, same outcome multiset — so the
  cache is a pure wall-clock optimization;
* per entry, in process, a hit is cheaper than what it replaces: compiling
  the network and building its ``vi`` :class:`~repro.iau.fastpath.ProgramMeta`.

The day itself is compile-heavy on purpose (six distinct accelerator
designs, two large networks each): it models the farm's real morning —
many heterogeneous nodes coming up at once to serve a few early jobs.

A second, in-process row isolates what a hit hydrates: one ResNet-50@112
``vi`` program adopted from its stored ``INCAPROG`` frame against the pickle
of ~69k ``Instruction`` objects entries held before cache format v4, at
least :data:`HYDRATE_FLOOR` x faster and byte-identical.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
import zlib
from pathlib import Path

from benchmarks.conftest import write_result
from repro.compiler.cache import MAGIC, VERSION, CompileCache, cache_key
from repro.compiler.compile import compile_network
from repro.container import unframe
from repro.iau.fastpath import build_program_meta
from repro.isa.program import Program
from repro.nn import TensorShape
from repro.zoo import build_darknet19, build_mobilenet_v1, build_resnet

HYDRATE_FLOOR = 10.0

#: Runs inside a fresh interpreter; prints one JSON line. Timing starts
#: after imports (interpreter/numpy start-up is identical across runs and
#: is not what the cache changes).
DAY_SCRIPT = r"""
import json, time
from dataclasses import replace

from repro.analysis.design_space import default_design_grid
from repro.farm import (
    Farm, PredictiveScheduler, ServiceSpec, SloClass, TenantSpec,
    TrafficSpec, generate_jobs,
)
from repro.compiler.cache import default_cache

GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=8_000_000)
SILVER = SloClass("silver", rank=1, weight=3.0, deadline_cycles=30_000_000)
SERVICES = (
    ServiceSpec("classify", "mobilenet_v1", GOLD),
    ServiceSpec("detect", "darknet19", SILVER),
)

small, big, wide_bw, double = default_design_grid()
GRID = [
    big,
    wide_bw,
    double,
    replace(big, name="angel-eye-s4", max_stripes_per_tile=4),
    replace(big, name="angel-eye-f2", instruction_fetch_cycles=2),
    replace(double, name="angel-eye-2x-hbw", ddr=replace(double.ddr, bytes_per_cycle=16.0)),
]

SPEC = TrafficSpec(
    tenants=tuple(
        TenantSpec(
            i,
            service=i % len(SERVICES),
            mean_interarrival_cycles=1_500_000,
            pattern="poisson",
        )
        for i in range(4)
    ),
    duration_cycles=6_000_000,
    seed=20,
)

jobs = generate_jobs(SPEC)
start = time.perf_counter()
farm = Farm(GRID, SERVICES, PredictiveScheduler())
result = farm.serve(jobs, max_workers=len(GRID))
elapsed = time.perf_counter() - start

cache = default_cache()
print(json.dumps({
    "seconds": elapsed,
    "jobs": len(jobs),
    "report": result.report.format(),
    "outcomes": sorted(
        [o.job_id, o.tenant_id, o.service, o.node, o.arrival_cycle,
         o.dispatch_cycle, o.complete_cycle]
        for o in result.outcomes
    ),
    "cache": cache.stats.format() if cache is not None else "disabled",
    "lookups": cache.stats.hits + cache.stats.misses if cache is not None else 0,
    "hits": cache.stats.hits if cache is not None else 0,
    "stores": cache.stats.stores if cache is not None else 0,
}))
"""


def run_day(cache_dir: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("REPRO_COMPILE_CACHE", None)
    if cache_dir is not None:
        env["REPRO_COMPILE_CACHE"] = cache_dir
    proc = subprocess.run(
        [sys.executable, "-c", DAY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_of(runs: list[dict]) -> dict:
    """The fastest attempt — every run is checked for identity anyway, so
    the timing comparison uses the least-noise sample per mode (shared CI
    boxes spike; the minimum is the standard stable estimator)."""
    return min(runs, key=lambda run: run["seconds"])


def test_warm_day_compiles_nothing_and_is_bit_identical(tmp_path):
    cache_dir = tmp_path / "compile-cache"

    uncached_runs = []
    cold_runs = []
    warm_runs = []
    for _ in range(2):
        uncached_runs.append(run_day(None))
        for entry in cache_dir.glob("*"):  # re-cold: drop every entry
            entry.unlink()
        cold_runs.append(run_day(str(cache_dir)))
        warm_runs.append(run_day(str(cache_dir)))
    uncached = best_of(uncached_runs)
    cold = best_of(cold_runs)
    warm = best_of(warm_runs)

    for run in uncached_runs + cold_runs + warm_runs:
        assert run["report"] == uncached["report"]
        assert run["outcomes"] == uncached["outcomes"]
    for run in cold_runs:
        assert run["hits"] == 0 and run["stores"] == run["lookups"] > 0
    for run in warm_runs:
        assert run["hits"] == run["lookups"] > 0 and run["stores"] == 0

    speedup_vs_uncached = uncached["seconds"] / warm["seconds"]

    lines = [
        "compile cache: multi-process farm day, cold vs warm start",
        f"  grid: 6 distinct accelerator designs x 2 networks "
        f"(mobilenet_v1 + darknet19), {uncached['jobs']} jobs",
        "",
        f"  {'run':<10} {'wall':>9} {'vs warm':>9}  cache",
        f"  {'uncached':<10} {uncached['seconds']:>8.2f}s "
        f"{speedup_vs_uncached:>8.2f}x  {uncached['cache']}",
        f"  {'cold':<10} {cold['seconds']:>8.2f}s "
        f"{cold['seconds'] / warm['seconds']:>8.2f}x  {cold['cache']}",
        f"  {'warm':<10} {warm['seconds']:>8.2f}s {1.0:>8.2f}x  {warm['cache']}",
        "",
        f"  warm day: {warm['hits']}/{warm['lookups']} lookups hit, 0 compiles, "
        f"0 stores; {speedup_vs_uncached:.2f}x faster than uncached (must be > 1)",
        "  bit-identity: cold == warm == uncached "
        "(FarmReport and outcome multiset)",
        "",
        uncached["report"],
    ]
    write_result("compile_cache", "\n".join(lines))

    assert warm["seconds"] < uncached["seconds"], (
        f"warm-cache farm day ({warm['seconds']:.2f}s) no faster than "
        f"compiling everything ({uncached['seconds']:.2f}s)"
    )


def timed(action, repeats: int = 5):
    """``(fastest wall seconds, last result)`` of ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_hit_is_cheaper_than_what_it_replaces(tmp_path, big_config):
    """Per entry, in process: loading an entry must beat compiling the
    network plus building the ``vi`` meta the entry carries."""
    rows = []
    for label, graph in (
        ("mobilenet_v1@224", build_mobilenet_v1()),
        ("darknet19@224", build_darknet19()),
    ):
        cache = CompileCache(tmp_path / label)
        key = cache_key(graph, big_config, weights="zeros")
        compile_s, fresh = timed(
            lambda: compile_network(graph, big_config, weights="zeros", cache=False)
        )
        meta_s, _ = timed(lambda: build_program_meta(fresh, fresh.program))
        first_store_s, _ = timed(lambda: cache.store(key, fresh), repeats=1)
        store_s, _ = timed(lambda: cache.store(key, fresh))  # meta already built
        hit_s, warm = timed(lambda: cache.load(key))
        assert warm is not None and warm.cached_mode_meta("vi") is not None
        assert warm.program.to_bytes() == fresh.program.to_bytes()
        plans_s, _ = timed(lambda: warm.plans)
        entry = cache.probe(key)
        rows.append(
            f"  {label:<18} {len(fresh.program):>8,} {compile_s * 1e3:>9.1f} "
            f"{meta_s * 1e3:>9.1f} {first_store_s * 1e3:>11.1f} {store_s * 1e3:>9.1f} "
            f"{hit_s * 1e3:>8.1f} {plans_s * 1e3:>9.1f} {entry.payload_bytes / 1024:>9.1f}"
        )
        assert hit_s < compile_s + meta_s, (
            f"{label}: a hit ({hit_s * 1e3:.1f} ms) costs more than compiling "
            f"({compile_s * 1e3:.1f} ms) and building the meta ({meta_s * 1e3:.1f} ms)"
        )
    lines = [
        f"compile cache: one entry on {big_config.name}, in process, best of 5 (ms)",
        f"  {'network':<18} {'instrs':>8} {'compile':>9} {'vi meta':>9} "
        f"{'first store':>11} {'re-store':>9} {'hit':>8} {'.plans':>9} {'KiB':>9}",
        *rows,
        "  invariant: hit < compile + vi meta (what a hit replaces); `first store`",
        "  builds the vi meta, `.plans` is derived on read and stored nowhere",
    ]
    write_result("compile_cache_entry", "\n".join(lines))


def test_program_hydrate_vs_pickle_oracle(tmp_path, big_config):
    graph = build_resnet("resnet50", TensorShape(112, 112, 3))
    cache = CompileCache(tmp_path / "compile-cache")
    fresh = compile_network(graph, big_config, weights="zeros", cache=cache)
    golden = fresh.program_for("vi")
    entry = cache.path_for(cache_key(graph, big_config, weights="zeros"))
    name, stored = pickle.loads(unframe(entry.read_bytes(), MAGIC, VERSION))["programs"]["vi"]
    # The oracle: the object graph a pre-v4 entry pickled for the same program.
    pickled = zlib.compress(pickle.dumps((golden.name, golden.instructions), protocol=5), 3)

    words_s, adopted = timed(lambda: Program.from_bytes(zlib.decompress(stored), name))
    pickle_s, unpickled = timed(lambda: pickle.loads(zlib.decompress(pickled)))
    assert adopted == golden and adopted.to_bytes() == golden.to_bytes()
    assert Program(*unpickled).to_bytes() == golden.to_bytes()

    speedup = pickle_s / words_s
    lines = [
        "compile cache: hydrating one program variant from a populated entry",
        f"workload: ResNet-50@112x112 `vi` on {big_config.name}, {len(golden):,} instructions",
        f"pickle oracle (zlib + unpickle objects) : {pickle_s * 1e3:>8.1f} ms   "
        f"({len(pickled):>9,} bytes stored)",
        f"word frame (zlib + CRC + opcode check)  : {words_s * 1e3:>8.1f} ms   "
        f"({len(stored):>9,} bytes stored, {speedup:.0f}x)",
        "to_bytes()                              : identical, and equal to the fresh compile",
        f"acceptance floor                        : {HYDRATE_FLOOR:.0f}x",
    ]
    write_result("program_hydrate", "\n".join(lines))
    assert speedup >= HYDRATE_FLOOR, f"word-frame hydrate only {speedup:.1f}x over the pickle"
