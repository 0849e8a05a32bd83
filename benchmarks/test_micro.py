"""Micro-benchmarks: throughput of the hot paths (pytest-benchmark proper).

These are conventional multi-round benchmarks (unlike the one-shot experiment
regenerations) and guard against performance regressions in the simulator's
inner loops.
"""

import numpy as np
import pytest

from repro.accel.runner import run_program
from repro.compiler import CompileCache, cache_key, compile_network
from repro.dslam import Camera, World, ransac_rigid_2d
from benchmarks.perf.spec import SIZES
from benchmarks.perf.workloads.common import build_graph
from benchmarks.perf.workloads.farm import CHAOS_SERVICES, SERVING_SERVICES, day
from repro.analysis.design_space import default_design_grid
from repro.farm import (
    ChaosPlan,
    Farm,
    FeedbackScheduler,
    NodeAssignment,
    PredictiveScheduler,
    ResilienceConfig,
    ServiceSpec,
    SloClass,
    build_node_system,
    build_report,
    join_outcomes,
    run_assignment,
)
from repro.farm.node import NodeJobResult, decode_results, encode_results, results_array
from repro.estimate import estimate_service_cycles
from repro.hw.config import AcceleratorConfig
from repro.isa import Instruction, Opcode, decode_stream, encode_stream
from repro.quant import conv2d
from repro.zoo import build_tiny_cnn


@pytest.fixture(scope="module")
def tiny_compiled():
    return compile_network(
        build_tiny_cnn(), AcceleratorConfig.worked_example(), weights="random", seed=0
    )


def test_bench_encode_decode_roundtrip(benchmark):
    stream = [
        Instruction(
            opcode=Opcode.CALC_F, layer_id=i % 100, rows=8, chs=16, in_chs=16, shift=6
        )
        for i in range(1000)
    ]

    def roundtrip():
        return decode_stream(encode_stream(stream))

    result = benchmark(roundtrip)
    assert len(result) == 1000


def test_bench_quantized_conv(benchmark):
    rng = np.random.default_rng(0)
    data = rng.integers(-128, 128, size=(32, 32, 16), dtype=np.int64).astype(np.int8)
    weights = rng.integers(-64, 64, size=(3, 3, 16, 32), dtype=np.int64).astype(np.int8)

    result = benchmark(
        lambda: conv2d(data, weights, None, (1, 1), (1, 1), 6, relu=True)
    )
    assert result.shape == (32, 32, 32)


def test_bench_timing_simulation(benchmark, tiny_compiled):
    result = benchmark(lambda: run_program(tiny_compiled, "vi", functional=False))
    assert result.total_cycles > 0


def test_bench_functional_simulation(benchmark, tiny_compiled):
    result = benchmark(lambda: run_program(tiny_compiled, "vi", functional=True))
    assert result.total_cycles > 0


def test_bench_compile_tiny(benchmark):
    result = benchmark(
        lambda: compile_network(
            build_tiny_cnn(), AcceleratorConfig.worked_example(), weights="zeros"
        )
    )
    assert len(result.program) > 0


def test_bench_cache_warm_load(benchmark, tmp_path):
    """``cache_warm_start``'s four networks loaded from a populated compile
    cache and each priced by ``estimate_service_cycles`` (the compiles and
    stores are done once, outside the timing)."""
    config = AcceleratorConfig.big()
    cache = CompileCache(tmp_path / "cache")
    keys, expected = [], []
    for net in SIZES["full"]["cache_warm_start"]["nets"]:
        graph = build_graph(*net)
        compiled = compile_network(graph, config, weights="zeros", cache=False)
        keys.append(cache_key(graph, config, weights="zeros"))
        cache.store(keys[-1], compiled)
        expected.append(estimate_service_cycles(config, compiled))

    def warm_load():
        return [estimate_service_cycles(config, cache.load(key)) for key in keys]

    assert benchmark(warm_load) == expected
    assert cache.stats.corrupt == 0


def test_bench_vo_ransac(benchmark):
    """One VO RANSAC call on a fixed frame pair: the 14 landmarks both
    frames see from poses 7.5 cm apart (one E10 frame step at 1.5 m/s and
    20 fps), camera noise on, two correspondences swapped."""
    camera = Camera(World.generate(), seed=0)
    before = camera.capture((12.0, 4.0, 0.0), 0, 0).observations
    after = camera.capture((12.075, 4.0, 0.0), 1, 0).observations
    shared = sorted(before.keys() & after.keys())[:14]
    assert len(shared) == 14
    previous = np.array([before[i] for i in shared])
    current = np.array([after[i] for i in shared])
    previous[[3, 9]] = previous[[9, 3]]

    rotation, translation, mask = benchmark(ransac_rigid_2d, current, previous, seed=5)
    assert mask.sum() == 12 and not mask[3] and not mask[9]
    assert np.allclose(translation, [0.075, 0.0], atol=0.05)


def test_bench_camera_capture(benchmark):
    """One E10 camera frame on the default arena and sensor: project the
    landmarks in view from a pose near the south wall and draw their
    position and descriptor noise."""
    camera = Camera(World.generate(), seed=0)
    frame = benchmark(camera.capture, (12.0, 4.0, 0.0), 0, 0)
    assert len(frame.observations) == len(frame.descriptors) == 16
    assert all(abs(np.linalg.norm(d) - 1.0) < 1e-12 for d in frame.descriptors.values())


#: One node's fixed share of a farm day: 2,000 tiny jobs alternating
#: between a gold and a bronze slot, one every 40,000 cycles (about 64 %
#: of the small design busy, so most jobs run alone and some preempt).
NODE_DAY = NodeAssignment(
    node=0,
    config=AcceleratorConfig.small(),
    services=(
        ServiceSpec("det", "tiny_cnn", SloClass("gold", 0, 8.0, 100_000)),
        ServiceSpec("emb", "tiny_conv", SloClass("bronze", 2, 1.0, 2_000_000)),
    ),
    dispatches=tuple((job, job % 2, 40_000 * job) for job in range(2_000)),
)


def test_bench_node_day(benchmark):
    """Submit, run and collect ``NODE_DAY`` on a fresh node system (built
    outside the timing): the per-job engine cost of a farm day."""

    def fresh_system():
        system = build_node_system(NODE_DAY.config, NODE_DAY.services)
        return (system,), {}

    results = benchmark.pedantic(
        lambda system: run_assignment(NODE_DAY, system), setup=fresh_system, rounds=5
    )
    assert sorted(row.job_id for row in results) == list(range(2_000))


def test_bench_resilient_day(benchmark):
    """A small ``serve_resilient`` day: 2,000 jobs of ``farm_resilient``'s
    traffic (seed 5) on the 4-node grid, one seeded node kill, 250,000-cycle
    epochs; a fresh farm per round (built outside the timing), since the
    feedback scheduler learns as it serves."""
    jobs = day(5, tenants=16, jobs=2_000, mean_interarrival=45_000)
    horizon = jobs[-1].arrival_cycle
    chaos = ChaosPlan.random_node_kills(
        5, num_nodes=4, kills=1, window=(horizon // 4, 7 * horizon // 12)
    )
    resilience = ResilienceConfig(epoch_cycles=250_000)

    def fresh_farm():
        return (Farm(default_design_grid(), CHAOS_SERVICES, FeedbackScheduler()),), {}

    result = benchmark.pedantic(
        lambda farm: farm.serve_resilient(jobs, resilience=resilience, chaos=chaos),
        setup=fresh_farm,
        rounds=10,
    )
    assert len(result.outcomes) + len(result.shed) == 2_000
    assert result.resilience.nodes_lost == 1 and result.resilience.migrations > 0


def test_bench_results_codec(benchmark):
    """Encode 20,000 node results into one int64 block and decode them
    back: what a gateway worker and the parent pay per shipped node (a
    job result crosses the journal as this block)."""
    rows = [NodeJobResult(job, job % 4, job % 3, 5 * job, 5 * job + 7, 5 * job + 900)
            for job in range(20_000)]

    decoded = benchmark(lambda: decode_results(encode_results(rows)))
    assert decoded == rows


def test_bench_plan_join_report(benchmark):
    """The parent's serial share of a fanned-out farm day, without the
    nodes: plan ``farm_day``'s 20,000-job day (seed 5) on the 4-node grid,
    join it with one int64 block of results (each job done at its dispatch
    cycle + estimate), and report it."""
    jobs = day(5, tenants=48, jobs=20_000, mean_interarrival=110_000)
    farm = Farm(default_design_grid(), SERVING_SERVICES, PredictiveScheduler())
    view = farm.view
    done = [
        NodeJobResult(d.job.job_id, d.node, d.job.service, d.dispatch_cycle,
                      d.dispatch_cycle, d.dispatch_cycle + farm.estimate(d.node, d.job.service))
        for d in farm.plan(jobs)
    ]
    block = encode_results(done)

    def parent_share():
        farm.plan(jobs)
        outcomes = join_outcomes(jobs, results_array([block]))
        return build_report(farm.scheduler.name, outcomes, view.slos, estimates=view.estimates)

    report = benchmark(parent_share)
    assert report.total_jobs == 20_000
    assert {entry.err_p99_cycles for entry in report.classes} == {0}


def test_bench_farm_day_serve(benchmark):
    """A warm serial ``Farm.serve`` of ``farm_day``'s 20,000-job day (seed
    5) on the 4-node grid: plan, every node answered by its plan, join,
    report (the compiles are done once, outside the timing)."""
    jobs = day(5, tenants=48, jobs=20_000, mean_interarrival=110_000)
    farm = Farm(default_design_grid(), SERVING_SERVICES, PredictiveScheduler())
    farm.serve(jobs)  # warm

    result = benchmark(lambda: farm.serve(jobs))
    assert result.report.total_jobs == 20_000
    assert farm.node_systems == [None] * 4
