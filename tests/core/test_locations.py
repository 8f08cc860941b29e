"""Unit tests for fault-location spaces and the hierarchy (Figure 6)."""

from fnmatch import fnmatchcase

import pytest

from repro.core import create_target
from repro.core.locations import (
    FaultLocation,
    LocationCell,
    LocationSpace,
    LocationTree,
)
from repro.util.errors import ConfigurationError
from tests.conftest import make_campaign


@pytest.fixture
def space():
    return LocationSpace(
        [
            LocationCell("scan:internal", "cpu.pc", 16),
            LocationCell("scan:internal", "cpu.regfile.r0", 32),
            LocationCell("scan:internal", "cpu.regfile.r1", 32),
            LocationCell("scan:internal", "cpu.cycle_counter", 32, read_only=True),
            LocationCell("memory:code", "word.0x0100", 32),
        ]
    )


class TestFaultLocation:
    def test_key_round_trip(self):
        location = FaultLocation("scan:internal", "cpu.regfile.r3", 17)
        assert FaultLocation.parse(location.key()) == location

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultLocation.parse("nonsense")


class TestSelection:
    def test_expand_pattern(self, space):
        locations = space.expand(["scan:internal/cpu.regfile.*"])
        assert len(locations) == 64
        assert all(loc.path.startswith("cpu.regfile") for loc in locations)

    def test_expand_excludes_read_only(self, space):
        locations = space.expand(["scan:internal/*"])
        assert not any("cycle_counter" in loc.path for loc in locations)

    def test_expand_can_include_read_only_for_observation(self, space):
        cells = space.select_cells(["scan:internal/*"], writable_only=False)
        assert any(cell.read_only for cell in cells)

    def test_expand_empty_match_raises(self, space):
        with pytest.raises(ConfigurationError):
            space.expand(["scan:internal/gpu.*"])

    def test_multiple_patterns_deduplicate(self, space):
        cells = space.select_cells(
            ["scan:internal/cpu.regfile.*", "scan:internal/cpu.*"]
        )
        paths = [cell.path for cell in cells]
        assert len(paths) == len(set(paths))

    def test_validate_selection_rejects_read_only_only(self, space):
        with pytest.raises(ConfigurationError):
            space.validate_selection(["scan:internal/cpu.cycle_counter"])

    def test_validate_selection_rejects_no_match(self, space):
        with pytest.raises(ConfigurationError):
            space.validate_selection(["bogus/*"])

    def test_validate_selection_accepts_mixed(self, space):
        space.validate_selection(["scan:internal/cpu.*"])

    def test_total_bits(self, space):
        assert space.total_bits() == 16 + 32 + 32 + 32
        assert space.total_bits(writable_only=False) == 16 + 32 * 4

    def test_duplicate_cell_rejected(self):
        cell = LocationCell("a", "x", 1)
        with pytest.raises(ConfigurationError):
            LocationSpace([cell, cell])

    def test_cell_lookup(self, space):
        assert space.cell("scan:internal", "cpu.pc").width == 16
        with pytest.raises(ConfigurationError):
            space.cell("scan:internal", "nope")


def _target_space(target_name):
    """The full location space of a target bound to a campaign."""
    if target_name == "tsm-1":
        campaign = make_campaign(
            target_name="tsm-1",
            workload_name="sumsq",
            location_patterns=["scan:internal/tsm.dstack.*"],
        )
    else:
        campaign = make_campaign(target_name=target_name)
    target = create_target(target_name)
    target.read_campaign_data(campaign)
    return target.location_space()


class TestSelectionMatchesFnmatch:
    """``select_cells`` compiles each pattern tuple once; its result and
    order must equal a per-cell, per-pattern ``fnmatchcase`` scan."""

    @pytest.mark.parametrize("target_name", ["thor-rd", "tsm-1"])
    @pytest.mark.parametrize("writable_only", [True, False])
    @pytest.mark.parametrize(
        "patterns",
        [
            [],
            ["scan:internal/*"],
            ["scan:internal/cpu.regfile.r1"],
            ["scan:internal/cpu.regfile.r?"],
            ["scan:internal/dcache.line[0-2].*", "memory:data/*"],
            ["*/cpu.regfile.r1[!0-2]", "swreg/*", "scan:boundary/pins.[ad]*"],
            ["scan:*/tsm.dstack.s[13]", "memory:*/word.0x00[0-9a-f]?"],
            ["memory:data/*", "scan:internal/*.pc", "scan:internal/cpu.*"],
            ["SCAN:internal/*", "nothing/*"],
        ],
    )
    def test_equals_fnmatchcase_reference(
        self, target_name, writable_only, patterns
    ):
        space = _target_space(target_name)
        expected = [
            cell
            for cell in space.cells()
            if not (writable_only and cell.read_only)
            and any(fnmatchcase(cell.full_path, p) for p in patterns)
        ]
        assert space.select_cells(patterns, writable_only) == expected
        # A second call reuses the compiled matcher; same answer.
        assert space.select_cells(list(patterns), writable_only) == expected


class TestTree:
    def test_hierarchy_levels(self, space):
        tree = space.tree()
        node = tree.subtree("scan:internal.cpu.regfile")
        assert set(node.children) == {"r0", "r1"}

    def test_leaf_cells_round_trip(self, space):
        assert len(space.tree().leaf_cells()) == 5

    def test_render_marks_read_only(self, space):
        text = space.tree().render()
        assert "[read-only]" in text
        assert "regfile" in text

    def test_missing_subtree_raises(self, space):
        with pytest.raises(ConfigurationError):
            space.tree().subtree("scan:internal.nothing")

    def test_tree_from_cells_static(self):
        tree = LocationTree.from_cells(
            [LocationCell("m", "a.b.c", 4)]
        )
        assert tree.subtree("m.a.b.c").cell.width == 4
