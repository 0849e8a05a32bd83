"""Fault-campaign acceptance run: 500 seeded runs, zero silent corruption.

Two claims, mirroring ``test_obs_overhead.py``'s structure:

1. **Zero-overhead when disarmed** — with no :class:`FaultPlan` attached
   (or a plan whose every rate is zero) the simulation finishes at the
   *exact* same cycle as the unfaulted build.  The fault hooks are all
   gated on ``faults is not None``; this is the guard that keeps them out
   of the golden path.
2. **Zero silent corruption under fire** — a 500-run campaign over the
   stock preemption workload, covering six injection sites (DDR flips and
   stalls, dropped/spurious preemptions, corrupted Vir_SAVE checkpoints,
   job overruns), classifies every run as survived / recovered /
   detected-fatal.  Not one run may produce outputs that differ from
   golden without a detection event: that is the paper-level claim the
   tolerance stack (SECDED ECC, checkpoint CRC, watchdogs) exists to make.

The formatted verdict table (rates per outcome, mean recovery latency in
cycles, per-site hit counts) lands in ``benchmarks/results/`` next to the
other experiment tables.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.conftest import write_result
from repro.faults import FaultPlan
from repro.faults.campaign import (
    RunOutcome,
    default_rates,
    make_preemption_scenario,
    run_campaign,
)
from tests.conformance import stepped

CAMPAIGN_RUNS = 500
REQUIRED_SITES = 5


@pytest.fixture(scope="module")
def scenario():
    """The stock two-task preemption workload (interrupt lands on a Vir_SAVE)."""
    return make_preemption_scenario()


def test_disarmed_faults_cycle_exact(scenario):
    """No plan, and an all-zero-rate plan, are cycle-for-cycle identical."""
    golden = scenario(None)
    zero_rate = scenario(FaultPlan(seed=0, rates={}))
    assert zero_rate.final_cycle == golden.final_cycle
    rearmed = scenario(None)
    assert rearmed.final_cycle == golden.final_cycle  # the scenario is deterministic


def test_campaign_500_runs_zero_silent_corruption(scenario):
    report = run_campaign(
        scenario, runs=CAMPAIGN_RUNS, rates=default_rates(), base_seed=0
    )
    write_result("faults_campaign", report.format())

    assert report.num_runs == CAMPAIGN_RUNS
    assert report.count(RunOutcome.SILENT_CORRUPTION) == 0
    assert len(report.sites_covered()) >= REQUIRED_SITES
    # The campaign must actually exercise the tolerance machinery, not
    # merely survive: recovery paths fire in a meaningful share of runs.
    assert report.count(RunOutcome.RECOVERED) > 0
    assert report.mean_recovery_latency_cycles() is not None
    assert report.mean_recovery_latency_cycles() >= 0


def test_campaign_500_runs_batched_bit_identical():
    """Armed differential at campaign scale: the batched fast path survives
    the full 500-run campaign bit-identically to armed ``step()`` (the
    conformance matrix's stepped oracle).

    The timing-only variant of the stock scenario is the regime where the
    fast path actually engages (functional runs always step); both campaigns
    run the one scenario, so the static stretch tables are the same artefact.
    Every run's classification — outcome, injected-fault log, crash
    messages, invariant-monitor findings — and a digest of its complete
    event stream must match seed for seed.
    """
    from repro.hw.config import AcceleratorConfig
    from repro.runtime.system import compile_tasks
    from repro.zoo import build_tiny_cnn, build_tiny_residual

    pair = compile_tasks(
        [build_tiny_cnn(), build_tiny_residual()],
        AcceleratorConfig.worked_example(),
        weights="random",
        seed=4,
    )
    scenario = make_preemption_scenario(pair, functional=False)

    def campaign():
        digests: list[str] = []

        def recording(plan):
            result = scenario(plan)
            stream = "".join(repr(event) for event in result.events)
            digests.append(hashlib.sha1(stream.encode()).hexdigest())
            return result

        report = run_campaign(recording, runs=CAMPAIGN_RUNS, rates=default_rates(), base_seed=0)
        return report, digests

    with pytest.MonkeyPatch.context() as patch:
        stepped(patch)
        report_s, digests_s = campaign()
    report_b, digests_b = campaign()

    assert report_b.golden_cycle == report_s.golden_cycle
    assert report_b.runs == report_s.runs  # outcome, faults, detail, violations
    assert digests_b == digests_s  # event streams, byte for byte
    assert report_b.num_runs == CAMPAIGN_RUNS
    assert len(report_b.sites_covered()) >= REQUIRED_SITES
