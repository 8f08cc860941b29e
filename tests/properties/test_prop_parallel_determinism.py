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
