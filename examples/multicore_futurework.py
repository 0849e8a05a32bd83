#!/usr/bin/env python
"""Multi-core multi-tasking — the paper's §VI future work, explored.

Deploys the DSLAM pair (high-priority FE + low-priority PR) as three farm
days (:func:`repro.analysis.experiments.experiment_multicore`) and prints the
trade-off table:

* 1 pre-emptive core — the paper's INCA system,
* 2 cores with static task placement — spatial isolation,
* 2 cores fed at arrival — each job to an idle core if there is one.

Spatial isolation zeroes the FE response latency but strands silicon; the
single interruptible core runs at full utilisation for a response cost of
tens of microseconds.  By default tiny stand-in networks run (FE every
three FE estimates); ``--full`` runs SuperPoint@120x160 at 20 fps + GeM.
"""

from __future__ import annotations

import argparse

from repro.analysis.experiments import experiment_multicore
from repro.compiler import compile_network
from repro.dslam.camera import frame_period_cycles
from repro.estimate import estimate_service_cycles
from repro.hw.config import AcceleratorConfig
from repro.zoo import build_tiny_conv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use the paper's SuperPoint/GeM workloads")
    args = parser.parse_args()

    config = AcceleratorConfig.big()
    if args.full:
        fe, pr, fe_count, pr_count = "superpoint_qqvga", "gem", 12, 2
        period = frame_period_cycles(config.clock.hz, 20.0)
    else:
        fe, pr, fe_count, pr_count = "tiny_conv", "tiny_cnn", 20, 6
        period = 3 * estimate_service_cycles(config, compile_network(build_tiny_conv(), config))

    print(f"serving FE={fe} every {period} cycles, PR={pr}...")
    result = experiment_multicore(config, fe, pr, period, fe_count, pr_count)
    print()
    print(result.format())
    print()
    single = result.row("1-core (INCA, pre-emptive)")
    spatial = result.row("2-core (spatial isolation)")
    print(
        "takeaway: the second core buys "
        f"{single.high_mean_response_cycles / config.clock.hz * 1e6:.1f} us of FE "
        f"response latency at the cost of running at "
        f"{spatial.utilisation() * 100:.0f}% vs {single.utilisation() * 100:.0f}% utilisation."
    )


if __name__ == "__main__":
    main()
