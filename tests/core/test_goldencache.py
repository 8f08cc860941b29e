"""Unit tests for the golden-run disk cache (repro.core.goldencache).

Covers the store/load round trip, corruption and mislabel handling,
cache-hit reuse inside ``prepare_run`` (the second run skips the
reference execution entirely) and the invariant that a cached golden
run produces byte-identical campaign results.
"""

import pickle

import pytest

from repro.core import create_target
from repro.core.goldencache import (
    GoldenRun,
    GoldenRunCache,
    campaign_golden_key,
)
from tests.conftest import make_campaign


def prepared_target(cache, **overrides):
    target = create_target("thor-rd")
    target.golden_cache = cache
    campaign = make_campaign(n_experiments=2, **overrides)
    target.prepare_run(campaign)
    return target, campaign


class TestCacheBasics:
    def test_round_trip(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        target, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        assert cache.stores == 1 and len(cache) == 1

        entry = cache.load(key)
        assert isinstance(entry, GoldenRun)
        assert entry.config_hash == key
        assert entry.target_name == campaign.target_name
        assert (
            entry.reference.duration_cycles
            == target._reference.duration_cycles
        )
        assert entry.reference.outputs == target._reference.outputs

    def test_load_missing_key_is_miss(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        assert cache.load("deadbeef") is None
        assert cache.load(None) is None
        assert cache.misses == 1  # None key short-circuits, no miss.

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.load(key) is None

    def test_mislabelled_entry_is_miss(self, tmp_path):
        """An entry whose recorded hash disagrees with its filename key
        (e.g. a manually renamed file) must not be served."""
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        entry.config_hash = "0" * 64
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        prepared_target(cache)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestVersionedKeys:
    """Cross-version adoption regression: entries produced by a
    different tool version or checkpoint-format version must be misses,
    never silently adopted."""

    def test_key_folds_tool_and_checkpoint_versions(self, monkeypatch):
        campaign = make_campaign()
        base_key = campaign_golden_key(campaign)

        import repro.observability.runmeta as runmeta
        monkeypatch.setattr(runmeta, "tool_version", lambda: "0.0.1-old")
        assert campaign_golden_key(campaign) != base_key

        monkeypatch.undo()
        import repro.core.goldencache as goldencache
        monkeypatch.setattr(goldencache, "CHECKPOINT_FORMAT", 999)
        assert campaign_golden_key(campaign) != base_key

    def test_store_stamps_versions(self, tmp_path):
        from repro.core.checkpoint import CHECKPOINT_FORMAT
        from repro.observability.runmeta import tool_version

        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        entry = cache.load(campaign_golden_key(campaign))
        assert entry.tool_version == tool_version()
        assert entry.checkpoint_format == CHECKPOINT_FORMAT

    def test_stale_tool_version_is_miss(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        entry.tool_version = "0.0.1-old"
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None

    def test_stale_checkpoint_format_is_miss(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        entry.checkpoint_format = 1
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None

    def test_format_3_entry_is_miss(self, tmp_path):
        """Entries from before the typed-array CPU snapshot (checkpoint
        format 3) hold payloads this build cannot restore: they miss."""
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        assert entry.checkpoint_format == 5
        entry.checkpoint_format = 3
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None

    def test_format_4_entry_is_miss(self, tmp_path):
        """Entries from before the last-instruction record lost its
        register-access tuples (checkpoint format 4) carry a longer
        scalar array than this build restores: they miss."""
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        assert entry.checkpoint_format == 5
        entry.checkpoint_format = 4
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None

    def test_unstamped_legacy_entry_is_miss(self, tmp_path):
        """An entry pickled before the version stamps existed
        deserialises without the attributes — it must miss, exactly
        like a corrupt entry."""
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        del entry.__dict__["tool_version"]
        del entry.__dict__["checkpoint_format"]
        with open(cache.path_for(key), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load(key) is None


class TestPrepareRunIntegration:
    def test_second_prepare_skips_reference_run(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        prepared_target(cache)

        target, _ = prepared_target(cache)
        assert cache.hits == 1
        # The cached golden run was adopted without re-simulating: the
        # reference path calls run_workload, which leaves nonzero cycles
        # on a fresh card only if the reference actually executed.
        assert target.card.cpu.cycles == 0
        assert target._reference is not None
        assert target._checkpoints is not None

    def test_config_change_invalidates(self, tmp_path):
        cache = GoldenRunCache(tmp_path)
        prepared_target(cache)
        prepared_target(cache, seed=999)
        assert cache.hits == 0
        assert cache.stores == 2

    def test_cached_golden_gives_identical_results(self, tmp_path):
        cache = GoldenRunCache(tmp_path)

        def run(with_cache):
            target = create_target("thor-rd")
            if with_cache:
                target.golden_cache = cache
            campaign = make_campaign(n_experiments=3)
            sink = target.run_campaign(campaign)
            return [
                (r.termination.kind, r.outputs, r.state_vector)
                for r in sink.results
            ]

        uncached = run(False)
        first = run(True)   # populates the cache
        second = run(True)  # served from the cache
        assert cache.hits >= 1
        assert first == uncached
        assert second == uncached

    def test_shared_golden_wrong_target_rejected(self, tmp_path):
        """prepare_run(golden=...) for a different target falls back to
        a fresh reference run instead of adopting a foreign golden."""
        cache = GoldenRunCache(tmp_path)
        _, campaign = prepared_target(cache)
        key = campaign_golden_key(campaign)
        entry = cache.load(key)
        entry.target_name = "some-other-board"

        target = create_target("thor-rd")
        reference = target.prepare_run(
            make_campaign(n_experiments=2), golden=entry
        )
        assert reference is not None
        assert target.card.cpu.cycles > 0  # really re-ran the workload
