"""E16 — campaign fabric: oversubscribed mixed-priority batch vs serial.

Regenerates: the scaling/correctness study for the campaign fabric
(``repro.service``, ``goofi serve``). A real :class:`FabricServer` —
sockets, priority queue, scheduler, worker fleet — executes a
three-campaign mixed-priority batch submitted through the REST client.
The batch runs :data:`FABRIC_LEGS` times, each leg on a fresh server
with its own database, and ``fabric_seconds`` is the fastest leg: the
first leg in a process also pays one-time process warm-up, which a
single timed leg would report as fabric cost. The fleet is deliberately
*oversubscribed* relative to the 1-core CI box (more worker slots than
cores, more shards than workers), because that is the fabric's
degradation story: saturation must queue and interleave, never
fork-bomb or corrupt results. Each campaign is then
re-run serially through the classic path and the logged experiment rows
are compared byte-for-byte (modulo the wall-clock field, via the shared
:func:`~repro.service.schema.canonical_rows_payload` form).

Shapes asserted:

* in every leg, every job of the batch finishes (none lost to the
  scheduler or the fleet accounting) and logs exactly ``n_experiments``
  rows;
* every leg's rows are byte-identical to serial execution for every
  campaign — the determinism contract survives the whole service stack
  (HTTP, queue, fleet grants, concurrent sqlite writers);
* every leg returns the fleet to idle (no leaked worker slots).

Environment knobs:

* ``E16_JOBS``     campaigns in the batch (default 3);
* ``E16_WORKERS``  fleet slot budget (default 4 — oversubscribed on CI).

Emits ``BENCH_e16_fabric.json`` next to the repo root.
"""

import multiprocessing
import os
import time

import pytest

from benchmarks.conftest import scaled, write_bench_json
from repro.core import CampaignData, CampaignController, create_target
from repro.db import GoofiDatabase
from repro.service import FabricClient, FabricServer, ServiceConfig
from repro.service.schema import canonical_rows_payload

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fabric benchmark needs the fork start method",
)

N_JOBS = int(os.environ.get("E16_JOBS", "3"))
FLEET_WORKERS = int(os.environ.get("E16_WORKERS", "4"))
N_EXPERIMENTS = scaled(48)

#: Priorities cycle through the batch so the queue really reorders.
PRIORITIES = (0, 5, 2)

#: Timed runs of the whole batch; ``fabric_seconds`` is the fastest.
FABRIC_LEGS = 5


def _campaign(index):
    return CampaignData(
        campaign_name=f"e16-fabric-{index}",
        target_name="thor-rd",
        technique="scifi",
        workload_name="vecsum",
        location_patterns=["scan:internal/cpu.regfile.*"],
        n_experiments=N_EXPERIMENTS,
        seed=1600 + index,
    )


def _serial_rows(campaign, tmp_path, index):
    with GoofiDatabase(str(tmp_path / f"serial-{index}.db")) as db:
        controller = CampaignController(
            create_target(campaign.target_name), sink=db
        )
        controller.run(campaign)
        return canonical_rows_payload(db, campaign.campaign_name)


def test_bench_e16_fabric(benchmark, tmp_path):
    campaigns = [_campaign(index) for index in range(N_JOBS)]

    def fabric_leg(leg):
        config = ServiceConfig(
            db_path=str(tmp_path / f"fabric-{leg}.db"),
            total_workers=FLEET_WORKERS,
            start_method="fork",
            poll_seconds=0.02,
        )
        t0 = time.perf_counter()
        with FabricServer(config).start() as server:
            client = FabricClient(server.url())
            records = [
                client.submit(
                    {
                        "campaign": campaign.to_dict(),
                        "tenant": f"tenant-{index % 2}",
                        "priority": PRIORITIES[index % len(PRIORITIES)],
                        "n_workers": 2,
                    }
                )
                for index, campaign in enumerate(campaigns)
            ]
            statuses = [
                client.wait(record["job_id"], timeout=600)
                for record in records
            ]
            seconds = time.perf_counter() - t0
            rows = [
                client.results(record["job_id"])["rows"]
                for record in records
            ]
            fleet = client.info()["fleet"]
        return statuses, rows, fleet, seconds

    legs = benchmark.pedantic(
        lambda: [fabric_leg(leg) for leg in range(FABRIC_LEGS)],
        rounds=1,
        iterations=1,
    )

    t0 = time.perf_counter()
    serial_rows = [
        _serial_rows(campaign, tmp_path, index)
        for index, campaign in enumerate(campaigns)
    ]
    serial_seconds = time.perf_counter() - t0

    total = N_JOBS * N_EXPERIMENTS
    leg_seconds = [seconds for _, _, _, seconds in legs]
    fabric_seconds = min(leg_seconds)
    rows_identical = all(rows == serial_rows for _, rows, _, _ in legs)
    throughput = total / max(fabric_seconds, 1e-9)

    print()
    print(
        f"E16: fabric batch of {N_JOBS} campaigns x {N_EXPERIMENTS} "
        f"experiments over a {FLEET_WORKERS}-slot fleet"
    )
    print(f"  fabric: {fabric_seconds:8.3f} s, fastest of {FABRIC_LEGS} "
          f"({throughput:.1f} experiments/s); legs "
          + ", ".join(f"{seconds:.3f}" for seconds in leg_seconds))
    print(f"  serial: {serial_seconds:8.3f} s")
    print(f"  rows byte-identical to serial: {rows_identical}")

    write_bench_json(
        "e16_fabric",
        {
            "n_experiments": total,
            "n_workers": FLEET_WORKERS,
            "n_jobs": N_JOBS,
            "fabric_seconds": fabric_seconds,
            "serial_seconds": serial_seconds,
            "fabric_throughput_per_second": throughput,
            "rows_identical": rows_identical,
        },
    )

    # Correctness gates, per leg: every job completed, every row matches
    # serial, and the fleet returned every slot (no leaked grants).
    for statuses, fabric_rows, fleet, _ in legs:
        for status in statuses:
            assert status["state"] == "finished"
            assert status["result"]["n_done"] == N_EXPERIMENTS
        for rows in fabric_rows:
            assert len(rows) == N_EXPERIMENTS
        assert fabric_rows == serial_rows
        assert fleet["busy_workers"] == 0
        assert fleet["total_workers"] == FLEET_WORKERS
