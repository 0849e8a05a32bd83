"""The persistent compile cache: keys, round-trips, corruption fallback,
cross-process races, the network's meta table, the node compile memo, and
the exact nearest-rank percentile."""

from __future__ import annotations

import multiprocessing
import pickle
import zlib
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from repro import AcceleratorConfig, compile_network, estimate_job_cycles
from repro.accel.reference import golden_output
from repro.accel.runner import run_program
from repro.compiler.cache import (
    CACHE_ENV_VAR,
    MAGIC,
    VERSION,
    CompileCache,
    cache_key,
    compiler_fingerprint,
    default_cache,
    main as cache_main,
)
from repro.compiler.vi_pass import ViPolicy
from repro.container import frame, unframe
from repro.errors import SchedulerError
from repro.farm.metrics import percentile
from repro.farm.node import (
    ServiceSpec,
    build_node_system,
    clear_compile_memo,
    compiled_for_services,
)
from repro.farm.traffic import SloClass
from repro.isa.program import Program
from repro.obs import EventBus, EventKind
from tests.test_container import MUTATIONS
from tests.test_isa import UNENCODABLE, reframed

BIG = AcceleratorConfig.big()
SMALL = AcceleratorConfig.small()


@pytest.fixture()
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


@pytest.fixture()
def graph():
    from repro.zoo import build_tiny_cnn

    return build_tiny_cnn()


def networks_identical(a, b) -> bool:
    """Bit-identity of the parts execution depends on."""
    if sorted(a.programs) != sorted(b.programs):
        return False
    for mode in a.programs:
        pa, pb = a.programs[mode], b.programs[mode]
        if pa.name != pb.name or pa.instructions != pb.instructions:
            return False
    if [cfg for cfg in a.layer_configs] != [cfg for cfg in b.layer_configs]:
        return False
    if a.layout.ddr.used_bytes != b.layout.ddr.used_bytes:
        return False
    return True


class TestCacheKey:
    def test_deterministic(self, graph):
        assert cache_key(graph, BIG) == cache_key(graph, BIG)

    def test_sensitive_to_every_input(self, graph):
        from repro.zoo import build_tiny_residual

        base = cache_key(graph, BIG)
        deltas = [
            cache_key(build_tiny_residual(), BIG),
            cache_key(graph, SMALL),
            cache_key(graph, BIG, base_addr=4096),
            cache_key(graph, BIG, weights="zeros"),
            cache_key(graph, BIG, seed=1),
            cache_key(graph, BIG, vi_policy=ViPolicy(calc_f_stride=2)),
            cache_key(graph, BIG, weight_percentile=95.0),
            cache_key(graph, BIG, verify_mode="full"),
        ]
        assert len({base, *deltas}) == len(deltas) + 1

    def test_sensitive_to_compiler_version(self, graph, monkeypatch):
        base = cache_key(graph, BIG)
        monkeypatch.setattr(
            "repro.compiler.cache.compiler_fingerprint", lambda: "repro-0.0/cache-v0"
        )
        assert cache_key(graph, BIG) != base


class TestRoundTrip:
    def test_hit_is_bit_identical(self, cache, graph):
        cold = compile_network(graph, BIG, weights="zeros", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert warm is not cold
        assert networks_identical(cold, warm)
        program_c = cold.program_for("vi")
        program_w = warm.program_for("vi")
        assert estimate_job_cycles(BIG, cold, program_c) == estimate_job_cycles(
            BIG, warm, program_w
        )

    def test_functional_run_matches_golden(self, cache, graph):
        cold = compile_network(graph, BIG, weights="random", cache=cache)
        warm = compile_network(graph, BIG, weights="random", cache=cache)
        shape = graph.input_shape
        rng = np.random.default_rng(7)
        image = rng.integers(
            -128, 128, size=(shape.height, shape.width, shape.channels), dtype=np.int8
        )
        run_program(cold, vi_mode="vi", functional=True, input_map=image)
        run_program(warm, vi_mode="vi", functional=True, input_map=image)
        out_cold, out_warm = cold.get_output(), warm.get_output()
        np.testing.assert_array_equal(out_cold, out_warm)
        np.testing.assert_array_equal(out_warm, golden_output(warm, image))

    def test_meta_is_warm_from_load(self, cache, graph, monkeypatch):
        compile_network(graph, BIG, weights="zeros", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)

        def explode(*args, **kwargs):
            raise AssertionError("execution_meta should be primed, not rebuilt")

        monkeypatch.setattr("repro.iau.fastpath.build_program_meta", explode)
        assert warm.execution_meta(warm.programs["vi"]) is not None

    def test_mode_meta_estimate_skips_hydration(self, cache, graph, monkeypatch):
        from repro.estimate import estimate_service_cycles

        cold = compile_network(graph, BIG, weights="zeros", cache=cache)

        def explode(word):
            raise AssertionError("a warm load and its estimate decode no Instruction")

        monkeypatch.setattr("repro.isa.program.decode_word", explode)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        # All three variants are adopted as word arrays at load, the shell
        # arrives with its meta table, and the estimate reads it: no object
        # is built.
        assert type(warm.programs) is dict and sorted(warm.programs) == sorted(cold.programs)
        assert warm.cached_mode_meta("vi") is not None
        assert warm.execution_meta(warm.program_for("vi")) is warm.cached_mode_meta("vi")
        assert estimate_service_cycles(BIG, warm, "vi") == estimate_job_cycles(
            BIG, cold, cold.program_for("vi")
        )

    def test_zero_ddr_elision_round_trips(self, cache, graph):
        cold = compile_network(graph, BIG, weights="zeros", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        for region in cold.layout.ddr.regions():
            restored = warm.layout.ddr.region(region.name).array
            np.testing.assert_array_equal(region.array, restored)
            assert restored.dtype == region.array.dtype
            assert restored.flags.writeable

    def test_plans_hydrate_lazily_and_match(self, cache, graph, monkeypatch):
        """Plans are derived when read, not stored: the load plans nothing
        (nor builds a meta, nor decodes a word) and a warm network's plans
        equal the fresh compile's."""
        cold = compile_network(graph, BIG, weights="zeros", cache=cache)

        def explode(*args, **kwargs):
            raise AssertionError("a warm load plans, builds and decodes nothing")

        with monkeypatch.context() as patched:
            patched.setattr("repro.compiler.compile.plan_layer", explode)
            patched.setattr("repro.compiler.lowering.plan_layer", explode)
            patched.setattr("repro.iau.fastpath.build_program_meta", explode)
            patched.setattr("repro.isa.program.decode_word", explode)
            warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        assert cache.stats.hits == 1
        assert warm.plans == cold.plans and len(warm.plans) == len(warm.layer_configs)

    def test_entry_holds_meta_body_programs_only(self, cache, graph):
        compile_network(graph, BIG, weights="zeros", cache=cache)
        (path,) = cache.root.glob("*.inca")
        document = pickle.loads(unframe(path.read_bytes(), MAGIC, VERSION))
        assert sorted(document) == ["body", "meta", "programs"]

    def test_loaded_network_pickles_as_plain_dict(self, cache, graph):
        compile_network(graph, BIG, weights="zeros", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        clone = pickle.loads(pickle.dumps(warm))
        assert type(clone.programs) is dict
        assert networks_identical(warm, clone)

    def test_cache_false_disables_env_default(self, tmp_path, graph, monkeypatch):
        root = tmp_path / "envcache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(root))
        compile_network(graph, BIG, weights="zeros", cache=False)
        assert not root.exists() or not list(root.glob("*.inca"))

    def test_env_var_default(self, tmp_path, graph, monkeypatch):
        root = tmp_path / "envcache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(root))
        compile_network(graph, BIG, weights="zeros")
        compile_network(graph, BIG, weights="zeros")
        shared = default_cache()
        assert shared is not None and shared.root == root
        assert shared.stats.hits >= 1
        assert len(list(root.glob("*.inca"))) == 1


class TestCorruptionFallback:
    def entry_path(self, cache, graph):
        compile_network(graph, BIG, weights="zeros", cache=cache)
        (path,) = list(cache.root.glob("*.inca"))
        return path

    def recompiles_cleanly(self, cache, graph):
        before = cache.stats.misses
        network = compile_network(graph, BIG, weights="zeros", cache=cache)
        assert cache.stats.misses == before + 1
        assert network.programs["vi"].instructions

    def counted_miss(self, cache, graph, mutation: str):
        """Cache *policy*: whatever ``repro.container`` refuses (fuzzed in
        ``tests/test_container.py``) is a counted miss, never an error and
        never stale data."""
        path = self.entry_path(cache, graph)
        path.write_bytes(MUTATIONS[mutation][1](path.read_bytes()))
        key = cache_key(graph, BIG, weights="zeros")
        before = cache.stats.corrupt
        assert cache.load(key) is None and cache.probe(key) is None
        assert cache.stats.corrupt == before + 2
        self.recompiles_cleanly(cache, graph)

    def test_truncated_file(self, cache, graph):
        self.counted_miss(cache, graph, "truncated")

    def test_bit_flip(self, cache, graph):
        self.counted_miss(cache, graph, "payload_bit")

    def test_bad_magic(self, cache, graph):
        self.counted_miss(cache, graph, "magic")

    def test_future_version(self, cache, graph):
        self.counted_miss(cache, graph, "future_version")

    def test_flags_and_trailing_bytes(self, cache, graph):
        self.counted_miss(cache, graph, "flags")
        self.counted_miss(cache, graph, "trailing")

    def test_pre_bump_entry_is_clean_miss(self, cache, graph):
        # A v1 entry predates the fault-opportunity table on ProgramMeta: if
        # it loaded, armed batching would silently sail past fault fires off
        # a stale stretch table.  A v4 entry keeps its metas beside the
        # network and a plans blob; its shell has no table of its own.
        # Stamping an on-disk entry with an old version must degrade to a
        # clean miss, and the recompile must carry the new table.
        assert VERSION == 5
        path = self.entry_path(cache, graph)
        for old_version in (1, 4):
            raw = bytearray(path.read_bytes())
            raw[8:10] = old_version.to_bytes(2, "big")
            path.write_bytes(bytes(raw))
            assert cache.load(cache_key(graph, BIG, weights="zeros")) is None
            self.recompiles_cleanly(cache, graph)
        network = compile_network(graph, BIG, weights="zeros", cache=cache)
        meta = network.execution_meta(network.programs["vi"])
        from repro.iau.fastpath import BATCH_FAULT_SITES

        assert set(meta.opportunities) == {s.value for s in BATCH_FAULT_SITES}
        assert all(
            len(opp) == len(network.programs["vi"]) + 1
            for opp in meta.opportunities.values()
        )

    def test_empty_file(self, cache, graph):
        self.counted_miss(cache, graph, "empty")

    @pytest.mark.parametrize("damage", sorted(UNENCODABLE))
    def test_unencodable_program_inside_a_valid_entry(self, cache, graph, damage):
        """An otherwise valid entry whose ``vi`` frame is CRC-clean but
        carries a reserved bit / unknown opcode: counted miss + recompile."""
        path = self.entry_path(cache, graph)
        document = pickle.loads(unframe(path.read_bytes(), MAGIC, VERSION))
        name, blob = document["programs"]["vi"]
        program = Program.from_bytes(zlib.decompress(blob), name)
        document["programs"]["vi"] = (
            name, zlib.compress(reframed(program, *UNENCODABLE[damage]))
        )
        path.write_bytes(frame(MAGIC, VERSION, pickle.dumps(document)))
        key = cache_key(graph, BIG, weights="zeros")
        before = cache.stats.corrupt
        assert cache.probe(key) is not None  # the entry itself reads fine
        assert cache.load(key) is None
        assert cache.stats.corrupt == before + 1
        self.recompiles_cleanly(cache, graph)
        assert cache.load(key) is not None  # and the bad entry was overwritten

    def test_foreign_fingerprint(self, cache, graph, monkeypatch):
        self.entry_path(cache, graph)
        monkeypatch.setattr(
            "repro.compiler.cache.compiler_fingerprint",
            lambda: "repro-99.0/cache-v1",
        )
        # Same path on disk, different live fingerprint: load refuses it.
        assert cache.load(cache_key(graph, BIG, weights="zeros")) is None


def _race_worker(root: str, queue) -> None:
    from repro.compiler.cache import CompileCache
    from repro.zoo import build_tiny_cnn

    cache = CompileCache(root)
    network = compile_network(build_tiny_cnn(), BIG, weights="zeros", cache=cache)
    queue.put(len(network.programs["vi"]))


class TestConcurrency:
    def test_racing_processes_both_succeed(self, tmp_path):
        root = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_race_worker, args=(root, queue)) for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        lengths = [queue.get(timeout=120) for _ in workers]
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert lengths[0] == lengths[1]
        cache = CompileCache(root)
        (entry,) = cache.entries()
        assert entry.instructions == lengths[0]


class TestMetaTable:
    """One ``vi_mode -> ProgramMeta`` table per network, one way in."""

    def test_peek_sees_a_meta_built_in_this_process(self, graph):
        compiled = compile_network(graph, BIG, weights="zeros", cache=False)
        assert compiled.cached_mode_meta("vi") is None  # a fresh compile builds none
        built = compiled.execution_meta(compiled.program_for("vi"))
        assert compiled.cached_mode_meta("vi") is built
        assert compiled.meta("vi") is built and compiled.cached_mode_meta("none") is None
        assert estimate_job_cycles(BIG, compiled, compiled.program) == built.total_cycles

    def test_table_survives_pickle(self, graph, monkeypatch):
        compiled = compile_network(graph, BIG, weights="zeros", cache=False)
        total = compiled.meta("vi").total_cycles
        clone = pickle.loads(pickle.dumps(compiled))

        def explode(*args, **kwargs):
            raise AssertionError("a pickled network keeps its metas")

        monkeypatch.setattr("repro.iau.fastpath.build_program_meta", explode)
        assert clone.execution_meta(clone.program_for("vi")).total_cycles == total
        assert clone.layer_config(0) == compiled.layer_config(0)

    def test_hand_built_program_is_priced_not_kept(self, graph):
        compiled = compile_network(graph, BIG, weights="zeros", cache=False)
        vi = compiled.program_for("vi")
        twin = Program(name=vi.name, instructions=vi.instructions)
        assert compiled.variant_of(twin) is None and compiled.variant_of(vi) == "vi"
        assert compiled.execution_meta(twin).total_cycles == compiled.meta("vi").total_cycles
        assert sorted(compiled.metas) == ["vi"]


GOLD = SloClass("gold", rank=0, weight=8.0, deadline_cycles=100_000)
SERVICES = (ServiceSpec("detect", "tiny_cnn", GOLD),)


class TestNodeCompileMemo:
    def setup_method(self):
        clear_compile_memo()

    def teardown_method(self):
        clear_compile_memo()

    def test_same_shape_compiles_once(self):
        first = compiled_for_services(BIG, SERVICES)
        second = compiled_for_services(BIG, SERVICES)
        assert first is second
        assert compiled_for_services(SMALL, SERVICES) is not first

    def test_build_node_system_reuses_compiles(self):
        sys_a = build_node_system(BIG, SERVICES)
        sys_b = build_node_system(BIG, SERVICES)
        assert sys_a.iau.contexts[0].compiled is sys_b.iau.contexts[0].compiled

    def test_functional_obs_bypasses_memo(self):
        from repro.obs import ObsConfig

        shared = build_node_system(BIG, SERVICES)
        private = build_node_system(BIG, SERVICES, obs=ObsConfig(functional=True))
        assert (
            private.iau.contexts[0].compiled
            is not shared.iau.contexts[0].compiled
        )

    def test_replay_on_shared_compile_is_exact(self):
        results = []
        for _ in range(2):
            system = build_node_system(BIG, SERVICES)
            system.submit(0, at_cycle=0)
            system.submit(0, at_cycle=500)
            system.run()
            results.append(
                [
                    (record.request_cycle, record.start_cycle, record.complete_cycle)
                    for record in system.jobs(0)
                ]
            )
        assert results[0] == results[1]

    def test_memo_is_bounded(self):
        from repro.farm.node import _COMPILE_MEMO, _COMPILE_MEMO_MAX

        from dataclasses import replace

        for base in range(_COMPILE_MEMO_MAX + 3):
            services = (ServiceSpec("svc", "tiny_cnn", GOLD),)
            config = replace(BIG, name=f"memo-{base}")
            compiled_for_services(config, services)
        assert len(_COMPILE_MEMO) <= _COMPILE_MEMO_MAX


class TestEventsAndStats:
    def test_hit_and_miss_events(self, tmp_path, graph):
        bus = EventBus()
        cache = CompileCache(tmp_path / "cache", bus=bus)
        compile_network(graph, BIG, weights="zeros", cache=cache)
        compile_network(graph, BIG, weights="zeros", cache=cache)
        kinds = [event.kind for event in bus.events]
        assert kinds == [EventKind.COMPILE_CACHE_MISS, EventKind.COMPILE_CACHE_HIT]
        miss, hit = bus.events
        assert miss.data["stored"] is True
        assert miss.data["graph"] == graph.name
        assert hit.data["seconds"] >= 0.0
        assert cache.stats.format().startswith("hits=1 misses=1")


class TestMaintenance:
    def warm_two(self, cache, graph):
        from repro.zoo import build_tiny_residual

        compile_network(graph, BIG, weights="zeros", cache=cache)
        compile_network(build_tiny_residual(), BIG, weights="zeros", cache=cache)

    def test_entries_and_probe(self, cache, graph):
        self.warm_two(cache, graph)
        entries = cache.entries()
        assert {entry.graph for entry in entries} == {"tiny_cnn", "tiny_residual"}
        probe = cache.probe(cache_key(graph, BIG, weights="zeros"))
        assert probe is not None and probe.fingerprint == compiler_fingerprint()
        assert cache.probe("0" * 64) is None

    def test_gc_max_entries(self, cache, graph):
        self.warm_two(cache, graph)
        removed = cache.gc(max_entries=1)
        assert len(removed) == 1
        assert len(cache.entries()) == 1

    def test_gc_removes_corrupt_and_tmp(self, cache, graph):
        self.warm_two(cache, graph)
        (cache.root / "junk.inca").write_bytes(b"garbage")
        (cache.root / "left.inca.tmp.999").write_bytes(b"partial")
        removed = cache.gc()
        assert len(removed) == 2
        assert len(cache.entries()) == 2

    def test_clear(self, cache, graph):
        self.warm_two(cache, graph)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_cli_smoke(self, tmp_path, capsys):
        root = str(tmp_path / "cli-cache")
        assert cache_main(["--dir", root, "warm", "--model", "tiny_cnn"]) == 0
        assert "store" in capsys.readouterr().out
        assert cache_main(["--dir", root, "warm", "--model", "tiny_cnn"]) == 0
        assert "hit" in capsys.readouterr().out
        assert cache_main(["--dir", root, "ls"]) == 0
        assert "tiny_cnn" in capsys.readouterr().out
        assert cache_main(["--dir", root, "gc", "--max-entries", "0"]) == 0
        assert cache_main(["--dir", root, "clear"]) == 0

    def test_cli_requires_dir(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            cache_main(["ls"])


class TestPercentile:
    def test_p100_is_max(self):
        assert percentile([3, 1, 2], 100) == 3

    def test_float_rounding_regression(self):
        # 1000 * 99.9 = 99900.00000000001 as binary floats: the old
        # multiply-then-ceil arithmetic returned rank 1000 instead of 999.
        values = list(range(1, 1001))
        assert percentile(values, 99.9) == 999

    def test_just_above_boundary_advances_rank(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 50) == 20
        assert percentile(values, 50.1) == 30

    def test_agrees_with_definition(self):
        for n in (1, 2, 3, 7, 100, 999, 1000):
            values = list(range(n))
            for p in (0.1, 25, 33.3, 50, 66.6, 75, 99, 99.9, 100):
                expected = values[ceil(Fraction(str(p)) * n / 100) - 1]
                assert percentile(values, p) == expected, (n, p)

    def test_rejects_bad_p(self):
        for p in (0, -1, 101, float("nan"), float("inf")):
            with pytest.raises(SchedulerError):
                percentile([1, 2], p)
        with pytest.raises(SchedulerError):
            percentile([], 50)
