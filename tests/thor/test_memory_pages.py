"""Regression pin: the bytes-level page scan equals the per-word scan.

``Memory.nonzero_pages`` used to walk every word in Python
(O(memory_size) per call — it runs at the first checkpoint capture of
every reference run). The vectorized core replaces
it with one ``tobytes`` plus a memcmp-speed compare per page; this suite
pins the new implementation's page set to the retained slow reference
(:func:`tests.reference_core.nonzero_pages_reference`) across adversarial
images, and covers the ``array``-backed page read/load round-trip it
feeds.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.thor.memory import PAGE_WORDS, Memory
from tests.reference_core import nonzero_pages_reference


def _fill(memory, writes):
    for address, value in writes:
        memory.poke(address % memory.size, value)


class TestNonzeroPagesEquality:
    def test_empty_memory(self):
        memory = Memory(4096)
        assert memory.nonzero_pages() == set()
        assert memory.nonzero_pages() == nonzero_pages_reference(memory)

    def test_page_boundaries(self):
        memory = Memory(4 * PAGE_WORDS)
        for address in (0, PAGE_WORDS - 1, PAGE_WORDS, 3 * PAGE_WORDS):
            memory.reset()
            memory.poke(address, 1)
            expected = {address // PAGE_WORDS}
            assert memory.nonzero_pages() == expected
            assert nonzero_pages_reference(memory) == expected

    def test_short_final_page(self):
        # A size that is not a multiple of PAGE_WORDS: the final page is
        # short, which the bytes path must not misread past.
        size = 3 * PAGE_WORDS + 17
        memory = Memory(size)
        memory.poke(size - 1, 0xDEADBEEF)
        assert memory.nonzero_pages() == {size // PAGE_WORDS}
        assert memory.nonzero_pages() == nonzero_pages_reference(memory)

    def test_write_then_clear_leaves_no_page(self):
        memory = Memory(2 * PAGE_WORDS)
        memory.poke(5, 77)
        memory.poke(5, 0)
        assert memory.nonzero_pages() == set()
        assert memory.nonzero_pages() == nonzero_pages_reference(memory)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_writes=st.integers(min_value=0, max_value=200),
        size_pages=st.integers(min_value=1, max_value=8),
        tail=st.integers(min_value=0, max_value=PAGE_WORDS - 1),
    )
    def test_random_images_match_reference(
        self, seed, n_writes, size_pages, tail
    ):
        size = (size_pages - 1) * PAGE_WORDS + max(1, tail)
        memory = Memory(size)
        rng = random.Random(seed)
        _fill(
            memory,
            (
                (rng.randrange(size), rng.getrandbits(32))
                for _ in range(n_writes)
            ),
        )
        assert memory.nonzero_pages() == nonzero_pages_reference(memory)

    def test_nonzero_addresses_unchanged(self):
        memory = Memory(4 * PAGE_WORDS)
        addresses = [3, PAGE_WORDS - 1, PAGE_WORDS, 2 * PAGE_WORDS + 9]
        for address in addresses:
            memory.poke(address, 1)
        assert list(memory.nonzero_addresses()) == sorted(addresses)


class TestPageRoundTrip:
    def test_read_page_is_typed_and_padded(self):
        size = PAGE_WORDS + 10
        memory = Memory(size)
        memory.poke(PAGE_WORDS + 3, 42)
        page = memory.read_page(1)
        assert len(page) == PAGE_WORDS  # short page zero-padded
        assert page[3] == 42
        assert all(value == 0 for value in page[10:])

    def test_read_page_is_a_copy(self):
        memory = Memory(2 * PAGE_WORDS)
        memory.poke(0, 1)
        page = memory.read_page(0)
        memory.poke(0, 2)
        assert page[0] == 1  # snapshot semantics, not a live view

    def test_load_page_accepts_lists_and_arrays(self):
        memory = Memory(2 * PAGE_WORDS)
        image = [0] * PAGE_WORDS
        image[7] = 1234
        memory.load_page(0, image)  # plain list
        assert memory.peek(7) == 1234
        other = Memory(2 * PAGE_WORDS)
        other.load_page(0, memory.read_page(0))  # typed array
        assert other.peek(7) == 1234
        assert other.dump(0, PAGE_WORDS) == memory.dump(0, PAGE_WORDS)

    def test_load_page_round_trip_full_memory(self):
        size = 2 * PAGE_WORDS + 5
        source = Memory(size)
        rng = random.Random(99)
        for _ in range(64):
            source.poke(rng.randrange(size), rng.getrandbits(32))
        clone = Memory(size)
        for page in sorted(source.nonzero_pages()):
            clone.load_page(page, source.read_page(page))
        assert clone.dump(0, size) == source.dump(0, size)
