"""Property test: parallel campaigns are byte-identical to serial runs.

The paper's reproducibility contract — every experiment derives from a
deterministic per-experiment RNG substream — means sharding a campaign
over a process pool must not change a single logged byte (modulo the
wall-clock timing field, which ``canonical_experiment_rows`` zeroes).

Hypothesis drives the campaign shape (technique, seed, size), the pool
shape (worker count, shard size) and the sink's flush row count, so
flush boundaries fall anywhere in both runs; the invariant is exact
equality of the canonicalised database rows.
"""

import multiprocessing
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import create_target, worker_factory
from repro.core.parallel import (
    ParallelConfig,
    canonical_experiment_rows,
    run_parallel_campaign,
)
from repro.db import GoofiDatabase, database
from tests.conftest import make_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests need the fork start method",
)

#: Each technique reaches a different location space (Table 1).
_TECHNIQUE_PATTERNS = {
    "scifi": ["scan:internal/cpu.regfile.*"],
    "swifi-pre": ["memory:data/*"],
    "swifi-runtime": ["memory:data/*"],
}

campaign_shapes = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(sorted(_TECHNIQUE_PATTERNS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_experiments": st.integers(min_value=1, max_value=8),
    }
)

pool_shapes = st.fixed_dictionaries(
    {
        "n_workers": st.integers(min_value=1, max_value=3),
        "shard_size": st.integers(min_value=1, max_value=4),
    }
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=campaign_shapes,
    pool=pool_shapes,
    flush_rows=st.integers(min_value=1, max_value=5),
)
def test_parallel_rows_byte_identical_to_serial(shape, pool, flush_rows):
    campaign = make_campaign(
        campaign_name=f"prop-{shape['technique']}-{shape['seed']}",
        location_patterns=_TECHNIQUE_PATTERNS[shape["technique"]],
        **shape,
    )

    with mock.patch.object(database, "FLUSH_ROWS", flush_rows):
        serial_db = GoofiDatabase(":memory:")
        create_target("thor-rd").run_campaign(campaign, sink=serial_db)

        parallel_db = GoofiDatabase(":memory:")
        run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            sink=parallel_db,
            config=ParallelConfig(start_method="fork", **pool),
        )

    serial_rows = canonical_experiment_rows(serial_db, campaign.campaign_name)
    parallel_rows = canonical_experiment_rows(
        parallel_db, campaign.campaign_name
    )
    assert len(serial_rows) == shape["n_experiments"]
    assert serial_rows == parallel_rows
    serial_db.close()
    parallel_db.close()


#: bubblesort checkpoints inside its reference run, so the parent's
#: schedule derives the rows of dead plans from the golden run; workers
#: execute only the rest (and the derived rows sampled for verification).
derived_shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_experiments": st.integers(min_value=4, max_value=10),
        "verify_equivalence": st.sampled_from([0.0, 0.5]),
    }
)


def _derived_campaign(seed, n_experiments):
    return make_campaign(
        campaign_name=f"prop-derived-{seed}",
        workload_name="bubblesort",
        workload_params={"n": 8, "seed": 7},
        location_patterns=[
            "scan:internal/cpu.regfile.*",
            "scan:internal/cpu.psr",
            "scan:internal/dcache.*",
        ],
        checkpoint_interval=64,
        seed=seed,
        n_experiments=n_experiments,
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shape=derived_shapes, pool=pool_shapes)
def test_parallel_rows_with_derived_rows_identical_to_serial(shape, pool):
    campaign = _derived_campaign(shape["seed"], shape["n_experiments"])
    serial_db = GoofiDatabase(":memory:")
    create_target("thor-rd").run_campaign(campaign, sink=serial_db)
    parallel_db = GoofiDatabase(":memory:")
    run_parallel_campaign(
        campaign,
        worker_factory("thor-rd"),
        sink=parallel_db,
        config=ParallelConfig(
            start_method="fork",
            verify_equivalence=shape["verify_equivalence"],
            **pool,
        ),
    )
    serial_rows = canonical_experiment_rows(serial_db, campaign.campaign_name)
    assert len(serial_rows) == shape["n_experiments"]
    assert serial_rows == canonical_experiment_rows(
        parallel_db, campaign.campaign_name
    )
    serial_db.close()
    parallel_db.close()


def test_workers_never_see_derived_rows():
    from repro.observability import configure, disable, get_observability

    campaign = _derived_campaign(seed=3, n_experiments=12)
    configure(metrics=True)
    try:
        run_parallel_campaign(
            campaign,
            worker_factory("thor-rd"),
            config=ParallelConfig(start_method="fork", n_workers=2),
        )
        counters = get_observability().metrics.snapshot()["counters"]
    finally:
        disable()
    derived = counters.get("divergence.liveness_exits", 0)
    executed = sum(
        value
        for name, value in counters.items()
        if name.startswith("worker") and name.endswith(".experiments_total")
    )
    assert derived >= 1
    assert executed == campaign.n_experiments - derived
