"""E2 — Fig. barresult(b): per-layer latency across networks & accelerators.

ResNet-101 / VGG-16 / MobileNet-V1 at the robot camera resolution (480x640;
MobileNet at 224 is also reported for reference) on a big (Para 16/16/8) and
a small (Para 8/8/4) accelerator.  Expected shape: layer-by-layer averages
ms to tens of ms on ResNet/VGG and ~1 ms on MobileNet; the VI method cuts
1.5-3 orders of magnitude, staying under 100 us on the big accelerator.

Networks are compiled, profiled and discarded one at a time — the small
accelerator's VGA compiles run to ~1.4M instructions each.
"""

from __future__ import annotations


import pytest

from benchmarks.conftest import write_result
from repro.analysis import experiment_network_sweep
from repro.compiler import compile_network
from repro.hw.config import AcceleratorConfig
from repro.interrupt.base import LAYER_BY_LAYER, VIRTUAL_INSTRUCTION
from repro.nn import TensorShape
from repro.zoo import build_mobilenet_v1, build_resnet, build_vgg

#: The sweep grid: (row key, graph factory).
_NETWORKS = (
    ("resnet101", lambda: build_resnet("resnet101", TensorShape(480, 640, 3))),
    ("vgg16", lambda: build_vgg("vgg16", TensorShape(480, 640, 3))),
    ("mobilenet_v1", lambda: build_mobilenet_v1(TensorShape(480, 640, 3))),
)


@pytest.fixture(scope="module")
def e2_result():
    rows = []
    for config in (AcceleratorConfig.big(), AcceleratorConfig.small()):
        for _, factory in _NETWORKS:
            compiled = compile_network(factory(), config, weights="zeros", verify="off")
            rows.extend(experiment_network_sweep([compiled]).rows)
            del compiled  # free ~100s of MB before the next compile
    from repro.analysis.experiments import E2Result

    return E2Result(rows=rows)


def test_e2_regenerate_figure(benchmark):
    """Benchmark one (network, accelerator) cell of the figure."""

    def one_cell():
        compiled = compile_network(
            build_mobilenet_v1(TensorShape(224, 224, 3)),
            AcceleratorConfig.big(),
            weights="zeros",
            verify="off",
        )
        return experiment_network_sweep([compiled])

    result = benchmark.pedantic(one_cell, rounds=1, iterations=1)
    assert result.rows


def test_e2_table_and_claims(benchmark, e2_result):
    benchmark(e2_result.format)
    write_result("e2_networks_sweep", e2_result.format())

    for network in ("resnet101", "vgg16"):
        big_layer = e2_result.row(network, "angel-eye-zu9", LAYER_BY_LAYER.name)
        big_vi = e2_result.row(network, "angel-eye-zu9", VIRTUAL_INSTRUCTION.name)
        # Paper: layer-by-layer on ResNet/VGG averages ms to tens of ms.
        assert big_layer.mean_layer_latency_us > 1000.0
        # Paper: the VI method brings latency under 100 us.
        assert big_vi.mean_layer_latency_us < 100.0

    mobile_layer = e2_result.row("mobilenet_v1", "angel-eye-zu9", LAYER_BY_LAYER.name)
    mobile_vi = e2_result.row("mobilenet_v1", "angel-eye-zu9", VIRTUAL_INSTRUCTION.name)
    # Paper: lightweight MobileNet is ~1 ms layer-by-layer...
    assert 300.0 < mobile_layer.mean_layer_latency_us < 3000.0
    # ...and still improves by more than an order of magnitude with VI.
    assert mobile_layer.mean_layer_latency_us / mobile_vi.mean_layer_latency_us > 15.0


def test_e2_reduction_orders_of_magnitude(benchmark, e2_result):
    """Paper: '2-3 orders of magnitude'.  Our DMA model leaves ~1.5-3 orders
    (non-interruptible tile loads set the VI floor); assert that envelope."""
    benchmark(lambda: e2_result.reduction_orders("resnet101", "angel-eye-zu9"))
    for network, _ in _NETWORKS:
        for config in ("angel-eye-zu9", "angel-eye-small"):
            orders = e2_result.reduction_orders(network, config)
            assert 1.3 < orders < 4.0, (network, config, orders)


def test_e2_small_accelerator_layer_waits_longer(benchmark, e2_result):
    """Smaller parallelism => the same layer takes longer => the
    layer-by-layer method waits longer on the small accelerator."""
    benchmark(lambda: e2_result.rows[0])
    for network, _ in _NETWORKS:
        big = e2_result.row(network, "angel-eye-zu9", LAYER_BY_LAYER.name)
        small = e2_result.row(network, "angel-eye-small", LAYER_BY_LAYER.name)
        assert small.mean_layer_latency_us > big.mean_layer_latency_us


def test_e2_blob_wait_doubles_on_small(benchmark):
    """Eq. 1 at the blob level: halving Para_in doubles the worst in-layer
    wait (one CalcBlob), independent of the DMA floor."""
    from repro.hw.timing import blob_cycles

    big = AcceleratorConfig.big()
    small = AcceleratorConfig.small()
    benchmark(lambda: blob_cycles(big, 256, 40, (3, 3)))
    for cin in (64, 256, 512):
        big_wait = blob_cycles(big, cin, 40, (3, 3))
        small_wait = blob_cycles(small, cin, 40, (3, 3))
        assert small_wait == pytest.approx(2 * big_wait, rel=0.05)
