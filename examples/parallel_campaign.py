#!/usr/bin/env python3
"""Parallel campaign execution: shard one campaign over worker processes.

The serial fault-injection loop (Figure 7) becomes embarrassingly
parallel on a simulated target: every experiment reinitialises the test
card and draws its fault from an index-keyed RNG substream, so results
are bit-identical no matter which process runs them. This walkthrough:

  1. runs the same SWIFI campaign serially and over a 4-worker pool,
  2. proves the logged experiment rows are byte-identical (modulo the
     wall-clock field),
  3. drives the pool through the Figure-7 controller — same progress
     window, same pause/resume/end buttons — and stops it early,
  4. resumes the stopped campaign from the database sink.

Run:  python examples/parallel_campaign.py
"""

import time

from repro.core import (
    CampaignData,
    ParallelCampaignController,
    ParallelConfig,
    create_target,
    run_parallel_campaign,
    worker_factory,
)
from repro.core.parallel import canonical_experiment_rows
from repro.db import GoofiDatabase
from repro.ui import ProgressWindow


def make_campaign(name: str, n_experiments: int = 120) -> CampaignData:
    return CampaignData(
        campaign_name=name,
        target_name="thor-rd",
        technique="swifi-pre",
        workload_name="vecsum",
        location_patterns=["memory:data/*"],
        n_experiments=n_experiments,
        seed=424242,
    )


def main() -> None:
    config = ParallelConfig(n_workers=4, shard_size=8)

    # --- 1+2: serial vs parallel, byte-identical rows --------------------
    campaign = make_campaign("par-demo")
    serial_db = GoofiDatabase(":memory:")
    t0 = time.perf_counter()
    create_target("thor-rd").run_campaign(campaign, sink=serial_db)
    serial_s = time.perf_counter() - t0

    parallel_db = GoofiDatabase(":memory:")
    t0 = time.perf_counter()
    run_parallel_campaign(
        campaign, worker_factory("thor-rd"), sink=parallel_db, config=config
    )
    parallel_s = time.perf_counter() - t0

    same = canonical_experiment_rows(
        serial_db, "par-demo"
    ) == canonical_experiment_rows(parallel_db, "par-demo")
    print(f"serial   {serial_s:6.2f}s")
    print(f"parallel {parallel_s:6.2f}s  ({config.n_workers} workers)")
    print(f"logged rows byte-identical: {same}")
    assert same
    print()

    # --- 3: Figure-7 controller over the pool, stopped early -------------
    db = GoofiDatabase(":memory:")
    campaign = make_campaign("par-controlled")
    controller = ParallelCampaignController(
        worker_factory("thor-rd"), sink=db, config=config
    )
    window = ProgressWindow(controller)
    controller.add_listener(
        lambda p: controller.stop() if p.n_done >= 40 else None
    )
    controller.run(campaign)
    print(window.render())
    done = db.count_experiments("par-controlled")
    print(f"stopped early with {done} experiments logged")
    print()

    # --- 4: resume from the sink ------------------------------------------
    resumed = ParallelCampaignController(
        worker_factory("thor-rd"), sink=db, config=config
    )
    resumed.run(campaign, resume=True)
    print(ProgressWindow(resumed).render())
    assert resumed.progress.n_done == campaign.n_experiments
    print(
        f"resumed to completion: "
        f"{db.count_experiments('par-controlled')} rows logged"
    )


if __name__ == "__main__":
    main()
