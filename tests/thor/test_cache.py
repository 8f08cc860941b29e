"""Unit tests for the parity-protected caches."""

import pytest

from repro.thor.cache import Cache, CacheParityError
from repro.thor.memory import Memory
from repro.util.bits import parity


@pytest.fixture
def memory():
    memory = Memory(1024)
    for address in range(256):
        memory.poke(address, address * 3 + 1)
    return memory


@pytest.fixture
def cache():
    return Cache("dcache", n_lines=4, words_per_line=4, miss_penalty=8,
                 address_bits=10)


class TestReadPath:
    def test_miss_then_hit(self, cache, memory):
        value, extra = cache.read(5, memory)
        assert value == 16
        assert extra == 8
        value, extra = cache.read(5, memory)
        assert extra == 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_line_fill_brings_neighbours(self, cache, memory):
        cache.read(4, memory)
        for address in (5, 6, 7):
            _, extra = cache.read(address, memory)
            assert extra == 0

    def test_conflict_eviction(self, cache, memory):
        cache.read(0, memory)
        # Same index, different tag: 4 lines * 4 words = 64-word stride.
        cache.read(64, memory)
        _, extra = cache.read(0, memory)
        assert extra == 8  # was evicted

    def test_parity_stored_correctly(self, cache, memory):
        cache.read(8, memory)
        tag, index, offset = cache.split(8)
        line = cache.lines[index]
        assert line.tag_parity == parity(line.tag)
        for word, par in zip(line.data, line.data_parity):
            assert par == parity(word)


class TestWritePath:
    def test_write_through(self, cache, memory):
        cache.read(4, memory)
        cache.write(4, 999, memory)
        assert memory.peek(4) == 999
        value, extra = cache.read(4, memory)
        assert value == 999 and extra == 0

    def test_write_miss_goes_to_memory_only(self, cache, memory):
        cache.write(100, 123, memory)
        assert memory.peek(100) == 123
        # No allocation on write miss.
        _, extra = cache.read(100, memory)
        assert extra == 8

    def test_write_updates_parity(self, cache, memory):
        cache.read(4, memory)
        cache.write(4, 0b111, memory)
        _, index, offset = cache.split(4)
        assert cache.lines[index].data_parity[offset] == parity(0b111)


class TestParityDetection:
    def test_injected_data_flip_detected_on_read(self, cache, memory):
        cache.read(4, memory)
        _, index, offset = cache.split(4)
        cache.lines[index].data[offset] ^= 1 << 9  # scan-chain injection
        with pytest.raises(CacheParityError) as excinfo:
            cache.read(4, memory)
        assert excinfo.value.array == "data"
        assert cache.stats.parity_errors == 1

    def test_injected_parity_bit_flip_detected(self, cache, memory):
        cache.read(4, memory)
        _, index, offset = cache.split(4)
        cache.lines[index].data_parity[offset] ^= 1
        with pytest.raises(CacheParityError):
            cache.read(4, memory)

    def test_injected_tag_flip_detected(self, cache, memory):
        cache.read(4, memory)
        _, index, _ = cache.split(4)
        cache.lines[index].tag ^= 1
        with pytest.raises(CacheParityError) as excinfo:
            cache.read(4, memory)
        assert excinfo.value.array == "tag"

    def test_double_flip_escapes_parity(self, cache, memory):
        # Even parity cannot see a double flip in the same word — the
        # mechanism behind higher escape rates at multiplicity 2 (E7).
        cache.read(4, memory)
        _, index, offset = cache.split(4)
        cache.lines[index].data[offset] ^= 0b11
        value, _ = cache.read(4, memory)
        assert value == memory.peek(4) ^ 0b11  # wrong data, undetected

    def test_flip_in_untouched_line_harmless(self, cache, memory):
        cache.read(4, memory)
        cache.lines[3].data[0] ^= 1  # invalid line: never checked
        cache.read(4, memory)

    def test_checking_disabled(self, memory):
        cache = Cache("d", n_lines=4, words_per_line=4, check_parity=False,
                      address_bits=10)
        cache.read(4, memory)
        _, index, offset = cache.split(4)
        cache.lines[index].data[offset] ^= 1
        cache.read(4, memory)  # silently returns corrupted data

    def test_refill_overwrites_fault(self, cache, memory):
        cache.read(4, memory)
        _, index, offset = cache.split(4)
        cache.lines[index].data[offset] ^= 1 << 5
        cache.lines[index].valid = False  # pretend evicted
        value, _ = cache.read(4, memory)
        assert value == memory.peek(4)  # fault overwritten by refill


class TestConfigValidation:
    def test_non_power_of_two_lines_rejected(self):
        with pytest.raises(ValueError):
            Cache("x", n_lines=3)

    def test_non_power_of_two_words_rejected(self):
        with pytest.raises(ValueError):
            Cache("x", words_per_line=5)

    def test_reset_clears_lines_and_stats(self, cache, memory):
        cache.read(4, memory)
        cache.reset()
        assert cache.stats.hits == 0
        assert all(not line.valid for line in cache.lines)

    def test_split_is_consistent(self, cache):
        # 4 lines -> 2 index bits; 4 words/line -> 2 offset bits.
        for address in (0, 5, 63, 512):
            tag, index, offset = cache.split(address)
            reconstructed = ((tag << 2 | index) << 2) | offset
            assert reconstructed == address


class TestReplay:
    """The next-event replay the pre-injection oracle reads is held to
    the cache itself: a cell it calls unread may be flipped at that
    instant and the rest of the accesses run through a real cache see
    no parity error, the same hits and misses, and the same lines —
    but for the flipped bit when the replay says nothing touches it."""

    N_LINES = 4
    WORDS = 2

    @staticmethod
    def _trace(accesses):
        from repro.core.trace import Trace, TraceStep

        return Trace([
            TraceStep(index=i, pc=0, cycle_before=i, cycle_after=i + 1,
                      mem_address=address, mem_is_write=store)
            for i, (address, store) in enumerate(accesses)
        ])

    def _run(self, accesses, start=0, fault=None):
        """Run ``accesses[start:]`` through a cache that ran the ones
        before; ``fault(cache)`` flips a cell in between. Returns the
        cache, or None when a parity check fired."""
        memory = Memory(64)
        for address in range(64):
            memory.write(address, address * 7 + 1)
        cache = Cache("dcache", n_lines=self.N_LINES,
                      words_per_line=self.WORDS, address_bits=6)
        for position, (address, store) in enumerate(accesses):
            if position == start and fault is not None:
                fault(cache)
            try:
                if store:
                    cache.write(address, position, memory)
                else:
                    cache.read(address, memory)
            except CacheParityError:
                return None
        if start == len(accesses) and fault is not None:
            fault(cache)
        return cache

    @staticmethod
    def _cells(cache):
        return [
            (line.valid, line.tag, line.tag_parity, list(line.data),
             list(line.data_parity))
            for line in cache.lines
        ]

    @staticmethod
    def _flip(line_no, name, word):
        def fault(cache):
            line = cache.lines[line_no]
            if name == "valid":
                line.valid = not line.valid
            elif name in ("tag", "tag_parity"):
                setattr(line, name, getattr(line, name) ^ 1)
            elif name == "word":
                line.data[word] ^= 1
            else:
                line.data_parity[word] ^= 1
        return fault

    @pytest.mark.parametrize("seed,stores", [(5, 0.3), (6, 0.5), (7, 0.7)])
    def test_unread_cells_change_nothing(self, seed, stores):
        import random

        from repro.thor.cache import CacheRecord

        rng = random.Random(seed)
        accesses = [
            (rng.randrange(24), rng.random() < stores) for _ in range(40)
        ]
        golden = self._run(accesses)
        record = CacheRecord(
            n_lines=self.N_LINES, words_per_line=self.WORDS,
            hits=golden.stats.hits, misses=golden.stats.misses,
        )
        replay = record.replay(self._trace(accesses))
        assert replay is not None
        names = ["valid", "tag", "tag_parity"] + [
            f"{kind}{w}" for kind in ("word", "parity") for w in range(self.WORDS)
        ]
        verdicts = {True: 0, False: 0, None: 0}
        for start in range(len(accesses) + 1):
            for line_no in range(self.N_LINES):
                for name in names:
                    reads = replay.next_access(f"line{line_no}.{name}", start)
                    verdicts[reads] += 1
                    if reads:
                        continue
                    field_name = name.rstrip("0123456789")
                    word = int(name[len(field_name):] or 0)
                    faulty = self._run(
                        accesses, start, self._flip(line_no, field_name, word)
                    )
                    assert faulty is not None, (start, line_no, name)
                    assert (faulty.stats.hits, faulty.stats.misses) == (
                        golden.stats.hits, golden.stats.misses
                    )
                    expected = self._run(accesses)
                    if reads is None:
                        self._flip(line_no, field_name, word)(expected)
                    assert self._cells(faulty) == self._cells(expected), (
                        start, line_no, name, reads
                    )
        # Every verdict occurs, so the check above is not vacuous.
        assert all(verdicts.values()), verdicts

    def test_verdicts_of_a_known_sequence(self):
        """Two words a line, four lines: address a sits in line
        (a >> 1) & 3, word a & 1, with tag a >> 3."""
        from repro.thor.cache import CacheRecord

        accesses = [
            (0, False),  # t0: line 0 read miss, fill
            (1, False),  # t1: read hit, word 1
            (0, True),   # t2: store hit, word 0
            (8, True),   # t3: store miss (tag 1): the line is unchanged
            (9, False),  # t4: read miss, fill with tag 1
            (2, False),  # t5: line 1 read miss, fill
            (3, True),   # t6: store hit, word 1
        ]
        replay = CacheRecord(self.N_LINES, self.WORDS, hits=3, misses=4).replay(
            self._trace(accesses)
        )
        expected = {
            ("line0.word0", 1): False,  # the store at t2 overwrites it
            ("line0.word1", 1): True,
            ("line0.word0", 3): False,  # the fill at t4
            ("line0.tag", 3): True,     # the store miss checks the tag
            ("line0.valid", 3): True,
            ("line0.word1", 5): None,
            ("line1.word1", 6): False,  # the last store hit
            ("line1.parity1", 6): False,
            ("line1.word0", 6): None,
            ("line1.valid", 6): True,   # a store reads the valid bit
            ("line1.tag", 0): False,    # an empty line's first fill
            ("line2.valid", 0): None,
        }
        assert {
            key: replay.next_access(*key) for key in expected
        } == expected

    def test_replay_must_reproduce_the_counts(self):
        from repro.thor.cache import CacheRecord

        accesses = [(0, False), (1, False), (9, True), (0, False)]
        golden = self._run(accesses)
        trace = self._trace(accesses)
        exact = CacheRecord(self.N_LINES, self.WORDS,
                            golden.stats.hits, golden.stats.misses)
        assert exact.replay(trace) is not None
        for hits, misses in ((golden.stats.hits + 1, golden.stats.misses),
                             (golden.stats.hits, golden.stats.misses + 1)):
            record = CacheRecord(self.N_LINES, self.WORDS, hits, misses)
            assert record.replay(trace) is None

    def test_uncached_window_and_unknown_cells(self):
        from repro.thor.cache import CacheRecord

        accesses = [(0, False), (40, False), (0, False)]
        trace = self._trace(accesses)
        # The access at 40 bypasses the cache: one miss, one hit.
        record = CacheRecord(self.N_LINES, self.WORDS, hits=1, misses=1,
                             uncached_base=32)
        replay = record.replay(trace)
        assert replay is not None
        assert replay.next_access("line0.word0", 1) is True
        assert replay.next_access("line0.bogus", 3) is True
        assert CacheRecord(self.N_LINES, self.WORDS, 1, 1).replay(trace) is None
