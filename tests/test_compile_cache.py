"""The persistent compile cache: keys, round-trips, corruption fallback,
cross-process races, the network's meta table, the node compile memo, and
the nearest-rank percentile's edge cases (its rounding cases and the
columnar ``nearest_rank`` are held in tests/test_farm.py)."""

from __future__ import annotations

import gc
import json
import multiprocessing
import pickle
import sys
import zlib
from array import array

import numpy as np
import pytest

from repro import AcceleratorConfig, compile_network, estimate_job_cycles
from repro.accel.reference import golden_output
from repro.accel.runner import run_program
from repro.compiler import VI_MODES
from repro.compiler.cache import (
    CACHE_ENV_VAR,
    MAGIC,
    VERSION,
    CompileCache,
    _dumps_body,
    cache_key,
    compiler_fingerprint,
    default_cache,
    main as cache_main,
    unpack_program,
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
from repro.faults.plan import FaultPlan, FaultSite
from repro.iau.fastpath import ProgramMeta, build_program_meta
from repro.isa.encoding import WORD_DTYPE
from repro.isa.program import Program
from repro.nn import TensorShape
from repro.obs import EventBus, EventKind
from repro.obs.config import ObsConfig
from repro.runtime import ArrivalPolicy
from repro.runtime.system import MultiTaskSystem, compile_tasks
from repro.verify.cli import main as verify_main
from repro.zoo import MODELS, build_gem, build_mobilenet_v1, build_resnet, build_superpoint
from tests.test_container import MUTATIONS
from tests.test_isa import UNENCODABLE

BIG = AcceleratorConfig.big()
SMALL = AcceleratorConfig.small()

#: The four networks of the ``compile_cold`` / ``cache_warm_start``
#: benchmark workloads, at their full sizes.
COMPILE_COLD_NETS = (
    ("gem-resnet18", lambda: build_gem(TensorShape(120, 160, 3), backbone="resnet18")),
    ("resnet50", lambda: build_resnet("resnet50", TensorShape(112, 112, 3))),
    ("mobilenet_v1", lambda: build_mobilenet_v1(TensorShape(112, 112, 3))),
    ("superpoint", lambda: build_superpoint(TensorShape(60, 80, 1), head="detector")),
)


@pytest.fixture()
def cache(tmp_path):
    return CompileCache(tmp_path / "cache")


@pytest.fixture()
def graph():
    from repro.zoo import build_tiny_cnn

    return build_tiny_cnn()


def program_columns(name: str, words: np.ndarray) -> tuple:
    """The v7 stored form of ``words``, built here from its definition (a
    field constant over the program is one value; the others' columns are
    one zlib stream in ``WORD_DTYPE`` order), not by ``pack_program``."""
    constants = {
        field: int(words[field][0])
        for field in WORD_DTYPE.names
        if len(np.unique(words[field])) == 1
    }
    stream = b"".join(
        words[field].tobytes() for field in WORD_DTYPE.names if field not in constants
    )
    return name, len(words), constants, zlib.compress(stream)


def assert_meta_equal(loaded, fresh) -> None:
    """Every column and table of ``loaded`` equals ``fresh``'s, as the
    ``array('q')`` columns a build makes; reading them decodes them all."""
    assert loaded is not None and loaded.fetch == fresh.fetch
    pairs = [
        (loaded.cum, fresh.cum),
        (loaded.boundaries, fresh.boundaries),
        (loaded._tile_ids, fresh._tile_ids),
    ]
    for table in ("stats", "opportunities"):
        got, want = getattr(loaded, table), getattr(fresh, table)
        assert list(got) == list(want)
        pairs += [(got[name], column) for name, column in want.items()]
    for got, want in pairs:
        assert type(got) is array and got.typecode == want.typecode == "q"
        assert got == want
    assert loaded.events == fresh.events
    assert loaded._tiles == fresh._tiles
    assert not loaded._packed
    assert type(loaded.total_cycles) is int


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

    def test_zero_elision_tests_bytes_not_values(self):
        """A ``-0.0`` buffer equals zero but keeps its sign bit, so it is
        stored, not elided; an all-zero ``int8`` buffer is still elided."""
        negative = np.full(1024, -0.0)
        restored = pickle.loads(_dumps_body({"x": negative}))["x"]
        assert restored.tobytes() == negative.tobytes()
        zeros = np.zeros(1 << 16, dtype=np.int8)
        dumped = _dumps_body({"x": zeros})
        assert len(dumped) < 256
        assert pickle.loads(dumped)["x"].tobytes() == zeros.tobytes()

    def test_entry_compressed_at_another_level_loads(self, cache, graph):
        """The zlib level is not part of the format: an entry whose frames
        were written at level 3 (as before level 1) is still a hit."""
        cold = compile_network(graph, BIG, weights="zeros", cache=cache)
        (path,) = cache.root.glob("*.inca")
        document = pickle.loads(unframe(path.read_bytes(), MAGIC, VERSION))

        def level_3(blob: bytes) -> bytes:
            return zlib.compress(zlib.decompress(blob), 3)

        document["body"] = level_3(document["body"])
        document["programs"] = {
            mode: (name, length, constants, level_3(blob))
            for mode, (name, length, constants, blob) in document["programs"].items()
        }
        path.write_bytes(frame(MAGIC, VERSION, pickle.dumps(document)))
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        assert cache.stats.hits == 1
        assert networks_identical(cold, warm)

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
        """A loaded meta that decoded nothing but ``cum`` re-pickles its
        packed columns as they arrived, and one read part-way pickles both
        halves: either clone decodes equal to a fresh build."""
        compile_network(graph, BIG, weights="zeros", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", cache=cache)
        meta = warm.cached_mode_meta("vi")
        assert meta is not None and sorted(meta._packed) == sorted(ProgramMeta._LAZY)
        clone = pickle.loads(pickle.dumps(warm))
        assert sorted(meta._packed) == sorted(ProgramMeta._LAZY)  # pickling decodes nothing
        assert type(clone.programs) is dict
        assert networks_identical(warm, clone)
        fresh = build_program_meta(warm, warm.program)
        assert_meta_equal(clone.cached_mode_meta("vi"), fresh)
        meta.stats, meta.events  # decode one table and one record list
        assert "stats" not in meta._packed and "boundaries" in meta._packed
        assert_meta_equal(pickle.loads(pickle.dumps(meta)), fresh)
        assert_meta_equal(meta, fresh)

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
        # A v5 entry pickles every meta column as one int per instruction.
        # A v6 entry stores each program as an ``INCAPROG`` frame, not as
        # columns.  Stamping an on-disk entry with an old version must
        # degrade to a clean miss, and the recompile must carry the new table.
        assert VERSION == 7
        path = self.entry_path(cache, graph)
        for old_version in (1, 4, 5, 6):
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
        """An otherwise valid entry whose ``vi`` columns carry an unknown
        opcode byte or a reserved bit in one word (the entry's CRC is
        rebuilt, so only the word check can see it): counted miss +
        recompile."""
        path = self.entry_path(cache, graph)
        document = pickle.loads(unframe(path.read_bytes(), MAGIC, VERSION))
        stored = document["programs"]["vi"]
        words = unpack_program(stored).words.copy()
        offset, value = UNENCODABLE[damage]
        words.view(np.uint8)[offset] = value
        damaged = program_columns(stored[0], words)
        # The damage lands in the opcode column, or makes a reserved field,
        # constant in every compiled program, a stored column.
        assert ("reserved0" in damaged[2]) is (damage == "unknown_opcode")
        document["programs"]["vi"] = damaged
        path.write_bytes(frame(MAGIC, VERSION, pickle.dumps(document)))
        key = cache_key(graph, BIG, weights="zeros")
        before = cache.stats.corrupt
        assert cache.probe(key) is not None  # the entry itself reads fine
        assert cache.load(key) is None
        assert cache.stats.corrupt == before + 1
        self.recompiles_cleanly(cache, graph)
        assert cache.load(key) is not None  # and the bad entry was overwritten

    @pytest.mark.parametrize("damage", ["short", "long", "constant"])
    def test_damaged_columns_inside_a_valid_entry(self, cache, graph, damage):
        """A column stream one byte short or long, or a constant out of its
        field's range: counted miss, never an error."""
        path = self.entry_path(cache, graph)
        document = pickle.loads(unframe(path.read_bytes(), MAGIC, VERSION))
        name, length, constants, blob = document["programs"]["vi"]
        stream = zlib.decompress(blob)
        if damage == "short":
            blob = zlib.compress(stream[:-1])
        elif damage == "long":
            blob = zlib.compress(stream + b"\0")
        else:
            constants = {**constants, "reserved0": 1 << 16}
        document["programs"]["vi"] = (name, length, constants, blob)
        path.write_bytes(frame(MAGIC, VERSION, pickle.dumps(document)))
        before = cache.stats.corrupt
        assert cache.load(cache_key(graph, BIG, weights="zeros")) is None
        assert cache.stats.corrupt == before + 1

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


class TestStoredColumns:
    """A stored ``ProgramMeta`` is a few buffers, and comes back as the
    ``array('q')`` columns a fresh build makes: a scalar read stays a plain
    ``int`` all the way to the cycle clock and the JSON reports."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zoo_meta_loads_equal_to_a_fresh_build(self, cache, model):
        graph = MODELS[model]()
        compile_network(graph, BIG, weights="zeros", verify="off", cache=cache)
        warm = compile_network(graph, BIG, weights="zeros", verify="off", cache=cache)
        assert cache.stats.hits == 1
        loaded, fresh = warm.cached_mode_meta("vi"), build_program_meta(warm, warm.program)
        assert_meta_equal(loaded, fresh)
        for boundary in fresh.boundaries:
            assert loaded.tiles_at(boundary) == fresh.tiles_at(boundary), boundary

    @pytest.mark.parametrize("net", COMPILE_COLD_NETS, ids=lambda net: net[0])
    def test_compile_cold_nets_load_equal_to_a_fresh_compile(self, cache, net):
        """Every variant of ``compile_cold``'s networks, stored with all
        three metas: the warm words are byte-identical to a fresh compile's,
        a load decodes no meta column but ``cum``, and each column and table
        equals a fresh build's after its first read."""
        graph = net[1]()
        stored = compile_network(graph, BIG, weights="zeros", cache=False)
        for mode in VI_MODES:
            stored.meta(mode)
        key = cache_key(graph, BIG, weights="zeros")
        cache.store(key, stored)
        del stored
        warm = cache.load(key)
        fresh = compile_network(graph, BIG, weights="zeros", cache=False)
        assert warm is not None and sorted(warm.metas) == sorted(VI_MODES)
        for mode in VI_MODES:
            program = warm.program_for(mode)
            assert program.to_bytes() == fresh.program_for(mode).to_bytes(), mode
            assert not program.words.flags.writeable
            loaded = warm.cached_mode_meta(mode)
            assert sorted(loaded._packed) == sorted(ProgramMeta._LAZY), mode
            assert_meta_equal(loaded, build_program_meta(fresh, fresh.program_for(mode)))

    def test_armed_pair_on_warm_networks_matches_the_cold_run(self, tmp_path):
        """The ``pair_armed`` benchmark schedule at ``scale=1`` (ResNet-18
        preempted by SuperPoint under a live fault plan, batched) on
        networks loaded with their metas still packed: the engine's first
        reads decode them, and the run equals the one on fresh compiles."""
        graphs = [
            build_resnet("resnet18", TensorShape(240, 320, 3)),
            build_superpoint(TensorShape(120, 160, 1), head="detector"),
        ]
        rates = {
            FaultSite.DDR_BIT_FLIP: 0.0002,
            FaultSite.DDR_STALL: 0.01,
            FaultSite.IAU_DROP_PREEMPT: 0.05,
            FaultSite.IAU_SPURIOUS_PREEMPT: 0.005,
            FaultSite.CHECKPOINT_CORRUPT: 0.02,
        }

        def run(compiled) -> tuple[dict, MultiTaskSystem]:
            low, high = compiled
            plan = FaultPlan(seed=5, rates=rates)
            system = MultiTaskSystem(low.config, faults=plan)
            system.add_task(0, high)
            system.add_task(1, low)
            system.submit(
                1, at_cycle=0, policy=ArrivalPolicy.PERIODIC, period_cycles=600_000, count=6
            )
            system.submit(
                0, at_cycle=150_000, policy=ArrivalPolicy.PERIODIC, period_cycles=450_000, count=8
            )
            system.run(batched=True)
            outcome = {
                "final": system.clock,
                "jobs": [
                    [(j.request_cycle, j.start_cycle, j.complete_cycle) for j in system.jobs(task)]
                    for task in (0, 1)
                ],
                "faults": [(fault.site.value, fault.cycle) for fault in plan.injected],
            }
            return outcome, system

        cold, _ = run(compile_tasks(graphs, BIG, cache=False))
        cache = CompileCache(tmp_path / "cache")
        compile_tasks(graphs, BIG, cache=cache)
        warm_nets = compile_tasks(graphs, BIG, cache=cache)
        assert cache.stats.hits == 2
        metas = [net.cached_mode_meta("vi") for net in warm_nets]
        assert all(sorted(meta._packed) == sorted(ProgramMeta._LAZY) for meta in metas)
        warm, system = run(warm_nets)
        assert warm == cold
        assert system.iau.dispatch_counts["batched"] > 0 and cold["faults"]
        assert not any(meta._packed for meta in metas)  # the run read every column

    def test_armed_functional_run_and_json_report_on_a_hit(self, tmp_path, monkeypatch, capsys):
        graph = MODELS["tiny_cnn"]()
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        compile_network(graph, BIG, weights="zeros", verify="off")
        warm = compile_network(graph, BIG, weights="zeros", verify="off")
        assert default_cache().stats.hits == 1
        plan = FaultPlan(
            seed=3, rates={FaultSite.DDR_STALL: 0.2, FaultSite.IAU_SPURIOUS_PREEMPT: 0.2}
        )
        system = MultiTaskSystem(BIG, obs=ObsConfig(functional=True), faults=plan)
        system.add_task(0, warm)
        for at in (0, 5_000):
            system.submit(0, at)
        system.run()
        assert system.iau.dispatch_counts["batched"] > 0 and plan.count() > 0
        assert type(system.clock) is int
        cycles = [
            value
            for record in system.jobs(0)
            for value in (record.request_cycle, record.start_cycle, record.complete_cycle)
        ]
        assert len(cycles) == 6 and {type(value) for value in cycles} == {int}

        capsys.readouterr()
        assert verify_main(["--model", "tiny_cnn", "--format", "json"]) == 0
        assert default_cache().stats.hits == 2  # the CLI's compile was a hit too
        hit = capsys.readouterr().out
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert verify_main(["--model", "tiny_cnn", "--format", "json"]) == 0
        assert json.loads(hit) == json.loads(capsys.readouterr().out)

    def test_warm_load_leaves_few_live_blocks(self, cache, big_config):
        """Counts objects, not seconds: a load that unpickled one int per
        instruction and column left ~780k blocks for this network."""
        graph = build_resnet("resnet50", TensorShape(112, 112, 3))
        fresh = compile_network(graph, big_config, weights="zeros", cache=cache)
        assert len(fresh.program_for("vi")) == 68_727
        key = cache_key(graph, big_config, weights="zeros")
        del fresh
        assert cache.load(key) is not None  # first-use allocations land here
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            warm = cache.load(key)
            blocks = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert warm is not None and warm.cached_mode_meta("vi") is not None
        assert blocks <= 40_000, f"a warm load left {blocks:,} new live blocks"


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

    @pytest.mark.parametrize(
        "name, configs",
        [
            ("small", ["angel-eye-small"]),
            ("all", ["angel-eye-zu9", "angel-eye-small", "worked-example"]),
        ],
    )
    def test_cli_warm_config(self, tmp_path, capsys, name, configs):
        root = str(tmp_path / "cli-cache")
        argv = ["--dir", root, "warm", "--model", "tiny_cnn", "--config", name]
        assert cache_main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in out if line.startswith("store")] == configs
        assert sorted(entry.config for entry in CompileCache(root).entries()) == sorted(configs)

    def test_cli_warm_refuses_an_unknown_config(self, tmp_path):
        """``example`` is the report and verifier CLIs' name for the worked
        example; the cache CLI spells it ``worked_example``."""
        with pytest.raises(SystemExit, match="unknown config 'example'"):
            cache_main(["--dir", str(tmp_path), "warm", "--config", "example"])

    def test_cli_requires_dir(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            cache_main(["ls"])


class TestPercentile:
    def test_p100_is_max(self):
        assert percentile([3, 1, 2], 100) == 3

    def test_rejects_bad_p(self):
        for p in (0, -1, 101, float("nan"), float("inf")):
            with pytest.raises(SchedulerError):
                percentile([1, 2], p)
        with pytest.raises(SchedulerError):
            percentile([], 50)
