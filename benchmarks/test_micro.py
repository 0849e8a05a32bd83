"""Micro-benchmarks: throughput of the hot paths (pytest-benchmark proper).

These are conventional multi-round benchmarks (unlike the one-shot experiment
regenerations) and guard against performance regressions in the simulator's
inner loops.
"""

import numpy as np
import pytest

from repro.accel.runner import run_program
from repro.compiler import compile_network
from repro.dslam import Camera, World, ransac_rigid_2d
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
