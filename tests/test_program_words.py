"""The program is its word array: round-trips, identity, and the column
scans held equal to the per-instruction walks they replaced.

``tests/program_walk_oracle.py`` is the reference: the structural rules and
the ``ProgramMeta`` walk as they stood when each visited one
:class:`Instruction` object at a time.  Every zoo network x
``none``/``vi``/``layer`` must produce the same diagnostics (code, index,
message, hint, order) and the same metadata field by field; random
mutations of a real program keep the diagnostics equal where they are not
empty.  The mutations ``tests/test_verify.py`` and
``tests/test_verify_properties.py`` generate run under the same comparison
through the ``structural_oracle`` fixture in ``conftest.py``.
"""

from __future__ import annotations

import pickle
import tokenize
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import repro.compiler.compile as compile_module
from repro.analysis.latency import instruction_cycles
from repro.compiler import CompileCache, compile_network
from repro.estimate import estimate_service_cycles
from repro.hw.config import AcceleratorConfig
from repro.iau.fastpath import build_program_meta
from repro.isa import Instruction, Opcode, Program, encode_instruction
from repro.isa import encoding
from repro.isa.encoding import WORD_DTYPE, decode_word, words_from_bytes
from repro.nn import TensorShape
from repro.obs.config import ObsConfig
from repro.runtime.system import ArrivalPolicy, MultiTaskSystem, compile_tasks
from repro.verify.diagnostics import Report
from repro.verify.engine import layer_table
from repro.verify.structural import structural_pass
from repro.zoo import (
    MODELS,
    build_gem,
    build_medium_layer_net,
    build_superpoint,
    build_tiny_cnn,
    build_tiny_conv,
    build_tiny_residual,
)
from tests import program_walk_oracle as oracle
from tests.conformance import stepped

instructions = st.builds(
    Instruction,
    opcode=st.sampled_from(list(Opcode)),
    layer_id=st.integers(0, 0xFFFF),
    save_id=st.integers(0, 0xFFFF),
    ddr_addr=st.integers(0, 0xFFFFFFFF),
    length=st.integers(0, 0xFFFFFFFF),
    row0=st.integers(0, 0xFFFF),
    rows=st.integers(0, 0xFFFF),
    ch0=st.integers(0, 0xFFFF),
    chs=st.integers(0, 0xFFFF),
    in_ch0=st.integers(0, 0xFFFF),
    in_chs=st.integers(0, 0xFFFF),
    shift=st.integers(-32768, 32767),
    flags=st.integers(0, 0xFF),
)


# -- Instruction <-> word ------------------------------------------------------


class TestWord:
    def test_dtype_is_the_struct_layout(self):
        """``WORD_DTYPE`` reads what ``_WORD`` packs, field for field."""
        values = (0x05, 0xA5, 7, 42, -3, 0xDEADBEEF, 640, 1, 2, 3, 4, 5, 6, 0, 0)
        (word,) = np.frombuffer(encoding._WORD.pack(*values), dtype=WORD_DTYPE)
        assert word.item() == values
        assert WORD_DTYPE.itemsize == encoding._WORD.size == 32

    @settings(max_examples=200, deadline=None)
    @given(instruction=instructions)
    def test_round_trip_over_the_full_field_ranges(self, instruction):
        (word,) = words_from_bytes(encode_instruction(instruction))
        assert decode_word(word) == instruction
        for field in fields(Instruction):
            assert word[field.name] == getattr(instruction, field.name)
        assert word["reserved0"] == 0 and word["reserved1"] == 0


# -- Program identity ----------------------------------------------------------


def assert_same_program(built: Program, adopted: Program) -> None:
    assert adopted == built and hash(adopted) == hash(built)
    assert adopted.to_bytes() == built.to_bytes()
    assert pickle.dumps(adopted) == pickle.dumps(built)
    assert all(slot is None for slot in adopted._objects)  # nothing decoded yet
    for index in reversed(range(len(built))):
        assert adopted[index] == built[index]
        assert adopted[index] is adopted[index]  # decoded once, kept
    assert adopted.instructions == built.instructions
    assert list(adopted) == list(built)


class TestProgramIdentity:
    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(instructions, min_size=1, max_size=40))
    def test_built_and_adopted_are_one_program(self, stream):
        built = Program(name="p", instructions=stream)
        assert_same_program(built, Program.from_bytes(built.to_bytes(), name="p"))
        assert_same_program(built, pickle.loads(pickle.dumps(built)))

    def test_compiled_program(self, tiny_cnn_compiled):
        for built in tiny_cnn_compiled.programs.values():
            assert_same_program(built, Program.from_bytes(built.to_bytes(), built.name))

    def test_name_is_part_of_the_identity(self, tiny_cnn_compiled):
        program = tiny_cnn_compiled.program
        renamed = Program.from_bytes(program.to_bytes(), name="other")
        assert renamed != program and renamed.instructions == program.instructions

    def test_words_are_read_only(self, tiny_cnn_compiled):
        with pytest.raises(ValueError):
            tiny_cnn_compiled.program.words["opcode"][0] = 0

    def test_decoded_instructions_share_their_large_ints(self, tiny_cnn_compiled):
        """Values past CPython's small-int cache are one object per value."""
        program = tiny_cnn_compiled.program
        decoded = Program.from_bytes(program.to_bytes(), program.name).instructions
        for name in ("save_id", "ddr_addr", "length", "ch0", "in_ch0"):
            held: dict[int, int] = {}
            for instruction in decoded:
                value = getattr(instruction, name)
                assert held.setdefault(value, value) is value, name

    def test_column_queries_match_the_objects(self, tiny_cnn_compiled):
        for built in tiny_cnn_compiled.programs.values():
            adopted = Program.from_bytes(built.to_bytes(), built.name)
            objects = built.instructions
            virtual = [i for i, ins in enumerate(objects) if ins.is_virtual]
            assert adopted.virtual_indices == tuple(virtual)
            assert adopted.switch_point_indices == tuple(
                i for i in virtual if objects[i].is_switch_point
            )
            counts: dict[Opcode, int] = {}
            for ins in objects:
                counts[ins.opcode] = counts.get(ins.opcode, 0) + 1
            assert list(adopted.opcode_histogram().items()) == list(counts.items())
            for layer_id in {ins.layer_id for ins in objects}:
                members = [i for i, ins in enumerate(objects) if ins.layer_id == layer_id]
                assert adopted.layer_span(layer_id) == (members[0], members[-1] + 1)
            assert adopted.without_virtual().instructions == tuple(
                ins for ins in objects if not ins.is_virtual
            )
            assert all(slot is None for slot in adopted._objects)  # columns only


# -- column scans vs the per-instruction walks -----------------------------------

BIG = AcceleratorConfig.big()
EXAMPLE = AcceleratorConfig.worked_example()

#: The verify CLI's zoo on the big accelerator, plus the small networks on
#: the worked-example one (narrow buffers: many tiles, operand-B loads,
#: CALC_I runs, partial SAVEs).
ZOO = {
    **{name: (build, BIG) for name, build in MODELS.items()},
    "gem_resnet18": (lambda: build_gem(TensorShape(120, 160, 3), backbone="resnet18"), BIG),
    "superpoint_detector": (
        lambda: build_superpoint(TensorShape(60, 80, 1), head="detector"), BIG,
    ),
    "medium_layer_net": (build_medium_layer_net, EXAMPLE),
    "tiny_cnn@example": (build_tiny_cnn, EXAMPLE),
    "tiny_conv@example": (build_tiny_conv, EXAMPLE),
    "tiny_residual@example": (build_tiny_residual, EXAMPLE),
}

STATS = (
    "instructions", "cycles", "load_cycles", "calc_cycles",
    "save_cycles", "bytes_loaded", "bytes_saved",
)


def diagnostics(run, program: Program, layers) -> list:
    report = Report()
    run(program, report, layers)
    return list(report)


def assert_same_meta(meta, walked) -> None:
    """``meta`` keeps ``array('q')`` columns and the walk keeps lists, so
    the two are compared by contents (an ``array`` never equals a ``list``)."""
    columns = [meta.cum, meta.boundaries, meta._tile_ids]
    assert list(meta.stats) == list(STATS)
    columns += list(meta.stats.values())
    columns += list(meta.opportunities.values())
    assert {column.typecode for column in columns} == {"q"}
    assert meta.fetch == walked.fetch
    assert meta.cum.tolist() == walked.cum
    for name in STATS:
        assert meta.stats[name].tolist() == getattr(walked.stats, name), name
    assert meta.events == walked.events
    assert meta.boundaries.tolist() == walked.boundaries
    tiles = {b: meta._tiles[i] for b, i in zip(meta.boundaries, meta._tile_ids)}
    assert tiles == walked.boundary_tiles
    assert len(set(meta._tiles)) == len(meta._tiles)  # one row per distinct tile set
    assert [(site, opp.tolist()) for site, opp in meta.opportunities.items()] == list(
        walked.opportunities.items()
    )
    # Plain ints all the way down: these feed cycle arithmetic and pickles.
    reads = [meta.cum[0], meta.cum[-1], meta.total_cycles, *meta.boundaries]
    reads += [column[-1] for column in columns]
    assert {type(value) for value in reads} == {int}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_meta_and_diagnostics_match_the_walk(name):
    build, config = ZOO[name]
    compiled = compile_network(build(), config, weights="zeros", verify="off", cache=False)
    layers = layer_table(compiled)
    for mode, program in compiled.programs.items():
        adopted = Program.from_bytes(program.to_bytes(), program.name)
        assert diagnostics(structural_pass, adopted, layers) == []
        assert diagnostics(oracle.structural_pass, program, layers) == []
        meta = build_program_meta(compiled, adopted)
        assert_same_meta(meta, oracle.build_program_meta(compiled, program))
        # The analysis-side timeline is the same hw.timing model, per kind.
        assert np.array_equal(instruction_cycles(compiled, mode), np.diff(meta.cum))


@pytest.fixture(scope="module")
def mutable(example_config):
    compiled = compile_network(build_tiny_residual(), example_config, weights="zeros")
    return compiled, layer_table(compiled)


#: Field rewrites that steer a real program into every structural rule.
REWRITES = st.one_of(
    st.builds(lambda v: {"opcode": v}, st.sampled_from(list(Opcode))),
    st.builds(lambda v: {"layer_id": v}, st.integers(0, 12)),
    st.builds(lambda v: {"save_id": v}, st.sampled_from([0, 1, 2, 3, 0xFFFF])),
    st.builds(lambda v: {"length": v}, st.sampled_from([0, 64])),
    st.builds(lambda v: {"ch0": v}, st.integers(0, 64)),
    st.builds(lambda v: {"chs": v}, st.integers(0, 64)),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_programs_report_the_same_diagnostics(data, mutable):
    compiled, layers = mutable
    stream = list(compiled.program_for(data.draw(st.sampled_from(["none", "vi", "layer"]))))
    for _ in range(data.draw(st.integers(1, 6))):
        index = data.draw(st.integers(0, len(stream) - 1))
        action = data.draw(st.sampled_from(["rewrite", "drop", "repeat", "move"]))
        if action == "rewrite":
            stream[index] = replace(stream[index], **data.draw(REWRITES))
        elif action == "drop" and len(stream) > 1:
            del stream[index]
        elif action == "repeat":
            stream.insert(index, stream[index])
        else:
            stream.insert(data.draw(st.integers(0, len(stream) - 1)), stream.pop(index))
    mutated = Program(name="mutated", instructions=stream)
    assert diagnostics(structural_pass, mutated, layers) == diagnostics(
        oracle.structural_pass, mutated, layers
    )


@pytest.fixture(scope="module", params=["tiny_residual", "tiny_cnn"])
def meta_mutable(request, example_config):
    build = {"tiny_residual": build_tiny_residual, "tiny_cnn": build_tiny_cnn}[request.param]
    return compile_network(build(), example_config, weights="zeros", verify="off", cache=False)


def assert_meta_matches_oracle(compiled, stream: list[Instruction]) -> bool:
    """Where the oracle walks ``stream`` to the end the metas agree field by
    field; where it raises, :func:`build_program_meta` raises the same type.
    Returns whether the oracle completed."""
    program = Program(name="mutated", instructions=stream)
    adopted = Program.from_bytes(program.to_bytes(), program.name)
    try:
        walked = oracle.build_program_meta(compiled, program)
    except Exception as error:
        with pytest.raises(type(error)):
            build_program_meta(compiled, adopted)
        return False
    assert_same_meta(build_program_meta(compiled, adopted), walked)
    return True


def test_meta_walk_skips_only_inert_instructions(meta_mutable):
    """The two placements the skipping walk must get right: a conv
    ``CALC_I`` continuation where no accumulator is open (it ends a clean
    boundary when no section is open either), and a virtual instruction
    where one is (it ends none)."""
    compiled = meta_mutable
    stream = list(compiled.program_for("none"))
    conv = {config.layer_id for config in compiled.layer_configs if config.kind == "conv"}

    def opens(ins: Instruction) -> bool:
        return ins.opcode is Opcode.CALC_I and ins.layer_id in conv and ins.in_ch0 == 0

    continuation = replace(next(ins for ins in stream if opens(ins)), in_ch0=1)
    loose: list[Instruction] = []
    inside: list[Instruction] = []
    for ins in stream:
        loose.append(ins)
        inside.append(ins)
        if ins.opcode is Opcode.SAVE:
            loose.append(continuation)
        if opens(ins):
            inside.append(replace(ins, opcode=Opcode.VIR_BARRIER))
    assert assert_meta_matches_oracle(compiled, loose)
    assert assert_meta_matches_oracle(compiled, inside)


#: Field rewrites that move instructions between walked and inert.
META_REWRITES = st.one_of(
    st.builds(lambda v: {"opcode": v}, st.sampled_from(list(Opcode))),
    st.builds(lambda v: {"in_ch0": v}, st.sampled_from([0, 4, 8])),
    st.builds(
        lambda op, v: {"opcode": op, "in_ch0": v},
        st.sampled_from([Opcode.CALC_I, Opcode.CALC_F, Opcode.VIR_BARRIER, Opcode.VIR_SAVE]),
        st.sampled_from([0, 4, 8]),
    ),
    st.builds(lambda v: {"chs": v}, st.sampled_from([0, 4, 8])),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_programs_build_the_oracle_meta(data, meta_mutable):
    stream = list(meta_mutable.program_for(data.draw(st.sampled_from(["none", "vi", "layer"]))))
    for _ in range(data.draw(st.integers(1, 6))):
        index = data.draw(st.integers(0, len(stream) - 1))
        action = data.draw(st.sampled_from(["rewrite", "rewrite", "drop", "repeat", "move"]))
        if action == "rewrite":
            stream[index] = replace(stream[index], **data.draw(META_REWRITES))
        elif action == "drop" and len(stream) > 1:
            del stream[index]
        elif action == "repeat":
            stream.insert(index, stream[index])
        else:
            stream.insert(data.draw(st.integers(0, len(stream) - 1)), stream.pop(index))
    completed = assert_meta_matches_oracle(meta_mutable, stream)
    event("oracle completed" if completed else "oracle raised")


# -- engagement: production paths decode a handful of objects ----------------------


@pytest.fixture()
def decodes(monkeypatch):
    """The memory address of every word a :class:`Program` decodes into an
    :class:`Instruction` — one entry per decode, distinct per (program, index)."""
    seen: list[int] = []
    original = encoding.decode_word

    def counting(word):
        seen.append(word.__array_interface__["data"][0])
        return original(word)

    monkeypatch.setattr("repro.isa.program.decode_word", counting)
    return seen


def warm_pair(tmp_path, weights: str, decodes: list[int]):
    """The pair loaded from a cache the same call just filled; ``decodes``
    is cleared in between, so it counts the warm load and what follows."""
    graphs = [
        build_gem(TensorShape(60, 80, 3), backbone="resnet18"),
        build_superpoint(TensorShape(60, 80, 1), head="detector"),
    ]
    cache = CompileCache(tmp_path / "cache")
    compile_tasks(graphs, BIG, weights=weights, cache=cache)
    decodes.clear()  # the cold compile's kind-table decodes are another program's
    pair = compile_tasks(graphs, BIG, weights=weights, cache=cache)
    assert cache.stats.hits == 2
    return pair


def run_preempted_pair(low, high) -> None:
    """One low-priority job pre-empted three times, on the batched engine."""
    system = MultiTaskSystem(BIG)
    system.add_task(0, high)
    system.add_task(1, low)
    system.submit(1, at_cycle=0)
    system.submit(
        0, at_cycle=40_000, policy=ArrivalPolicy.PERIODIC, period_cycles=1_200_000, count=3
    )
    system.run(batched=True)
    assert system.iau.num_switches >= 7  # three pre-emptions of the one low-priority job
    assert len(system.jobs(0)) == 3 and len(system.jobs(1)) == 1


def test_batched_run_after_warm_load_decodes_under_five_percent(tmp_path, decodes):
    """A silent fall-back to whole-program iteration (or to ``step()``)
    would pass every differential; it cannot pass this count."""
    low, high = warm_pair(tmp_path, "zeros", decodes)
    run_preempted_pair(low, high)
    assert len(decodes) == len(set(decodes))
    assert 0 < len(decodes) < 0.05 * len(low.program)


def test_fresh_compile_to_batched_run_decodes_under_five_percent(decodes):
    """The compiler builds words, not objects, and nothing downstream of a
    fresh compile — structural verify, the meta build, the cycle estimate,
    a batched pre-empted run — asks for more than a handful of them."""
    graphs = [
        build_gem(TensorShape(60, 80, 3), backbone="resnet18"),
        build_superpoint(TensorShape(60, 80, 1), head="detector"),
    ]
    low, high = compile_tasks(graphs, BIG, weights="zeros", cache=False)
    assert decodes == []  # compiled and structurally verified on columns alone
    for net in (low, high):
        assert estimate_service_cycles(BIG, net) == net.execution_meta(net.program).total_cycles
    run_preempted_pair(low, high)
    assert len(decodes) == len(set(decodes))
    held = sum(
        slot is not None
        for net in (low, high)
        for program in net.programs.values()
        for slot in program._objects
    )
    assert held == len(decodes)  # kind tables and pre-emption points, kept once decoded
    assert 0 < held < 0.05 * (len(low.program) + len(high.program))


def test_the_compiler_constructs_no_instruction():
    """``Instruction(`` appears in ``src/repro/compiler`` in docstrings only."""
    package = Path(compile_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        with tokenize.open(path) as source:
            tokens = [
                token
                for token in tokenize.generate_tokens(source.readline)
                if token.type in (tokenize.NAME, tokenize.OP)
            ]
        calls = [
            name.start[0]
            for name, after in zip(tokens, tokens[1:])
            if name.string == "Instruction" and after.string == "("
        ]
        assert not calls, f"{path.name} builds an Instruction at line(s) {calls}"


def run_functional_pair(low, high) -> None:
    """Two low-priority jobs, one pre-emption, real int8 arithmetic."""
    system = MultiTaskSystem(BIG, obs=ObsConfig(functional=True))
    system.add_task(0, high)
    system.add_task(1, low)
    system.submit(1, at_cycle=0)
    system.submit(1, at_cycle=1)
    system.submit(0, at_cycle=40_000)
    system.run()
    assert len(system.jobs(1)) == 2


def test_functional_run_decodes_each_index_once(tmp_path, decodes, monkeypatch):
    """The stepped walk decodes every index, each once, however often the
    jobs revisit it."""
    low, high = warm_pair(tmp_path, "random", decodes)
    stepped(monkeypatch)
    run_functional_pair(low, high)
    assert len(decodes) == len(set(decodes)) == len(low.program) + len(high.program)


def test_functional_batched_run_skips_decodes(tmp_path, decodes):
    """A functional core batches like a timing-only one: no index is
    decoded twice, and the stretches it retired are never decoded."""
    low, high = warm_pair(tmp_path, "random", decodes)
    run_functional_pair(low, high)
    assert len(decodes) == len(set(decodes)) < len(low.program) + len(high.program)
