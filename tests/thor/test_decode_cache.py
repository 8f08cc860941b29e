"""Purity of the decode memo and the fused-dispatch exec cache.

The vectorized core shares decoded :class:`Instruction` objects (and the
derived ``(instruction, execute, cost)`` exec entries, whose execute
functions are instantiated from the per-opcode template table) across
every experiment of a campaign, so three properties are load-bearing:

* decoded instructions are deeply immutable — a shared object one
  experiment could mutate would leak state between experiments;
* memoized decode is extensionally identical to uncached decode for
  every word, legal or not;
* illegal words never poison either cache: fault injection constantly
  creates garbage words, and a cached "illegal" verdict (or worse, a
  cached bogus instruction) would corrupt later campaigns in-process.
"""

import dataclasses
import random

import pytest

from repro.thor import cpu as cpu_mod
from repro.thor import isa
from repro.thor.isa import (
    IllegalOpcode,
    Instruction,
    Opcode,
    assemble_word,
    decode,
    try_decode,
)

_VALID_FIELDS = {op.value for op in Opcode}


def _legal_words(count, seed=7):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = rng.getrandbits(32)
        if (word >> 26) & 0x3F in _VALID_FIELDS:
            words.append(word)
    return words


def _illegal_words(count, seed=11):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = rng.getrandbits(32)
        if (word >> 26) & 0x3F not in _VALID_FIELDS:
            words.append(word)
    return words


class TestInstructionImmutability:
    def test_fields_frozen(self):
        instr = decode(assemble_word(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.rd = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.opcode = Opcode.SUB

    def test_decode_returns_shared_frozen_object(self):
        word = assemble_word(Instruction(Opcode.ADDI, rd=1, rs1=2, imm=42))
        first = decode(word)
        second = decode(word)
        assert first is second  # memoized: one shared frozen object


class TestDecodeMemoEquivalence:
    def test_memo_matches_uncached_decode(self):
        for word in _legal_words(200):
            assert decode(word) == isa._decode_uncached(word)

    def test_repeated_decode_is_stable(self):
        for word in _legal_words(50, seed=23):
            instrs = {decode(word) for _ in range(3)}
            assert len(instrs) == 1

    def test_every_6bit_opcode_field_agrees_with_uncached(self):
        for field in range(64):
            word = field << 26
            try:
                expected = isa._decode_uncached(word)
            except IllegalOpcode:
                with pytest.raises(IllegalOpcode):
                    decode(word)
            else:
                assert decode(word) == expected


class TestNoPoisoning:
    def test_illegal_words_never_enter_decode_cache(self):
        isa.decode_cache_clear()
        for word in _illegal_words(50):
            with pytest.raises(IllegalOpcode):
                decode(word)
            assert try_decode(word) is None
        assert isa.decode_cache_size() == 0

    def test_illegal_then_legal_decode_still_correct(self):
        """A raise mid-campaign must not leave partial entries behind."""
        isa.decode_cache_clear()
        legal = assemble_word(Instruction(Opcode.LDI, rd=3, imm=-5))
        for word in _illegal_words(10, seed=3):
            with pytest.raises(IllegalOpcode):
                decode(word)
            instr = decode(legal)
            assert instr.opcode is Opcode.LDI
            assert instr.imm == -5
        assert isa.decode_cache_size() == 1

    def test_illegal_words_never_enter_exec_cache(self):
        cpu_mod._EXEC_CACHE.clear()
        for word in _illegal_words(50, seed=5):
            assert cpu_mod._exec_entry(word) is None
        assert not cpu_mod._EXEC_CACHE

    def test_exec_entry_matches_decode(self):
        """A legal word's entry is its decode, the execute function
        instantiated from its opcode's template, and its base cost; an
        illegal word gets none."""
        cpu_mod._EXEC_CACHE.clear()
        for word in _legal_words(50, seed=31):
            entry = cpu_mod._exec_entry(word)
            assert entry is not None
            instr, execute, cost = entry
            assert instr is decode(word)
            assert execute is cpu_mod._EXECUTE[instr.opcode]
            assert execute.__code__.co_filename == (
                f"<thor-op {instr.opcode.name}>"
            )
            assert cost == isa.CYCLE_COST[instr.opcode]
        for word in _illegal_words(20, seed=37):
            assert cpu_mod._exec_entry(word) is None
            assert word not in cpu_mod._EXEC_CACHE


class TestSizeBound:
    def test_clear_on_full_keeps_serving_correct_decodes(self, monkeypatch):
        monkeypatch.setattr(isa, "_DECODE_CACHE_MAX", 8)
        isa.decode_cache_clear()
        words = _legal_words(64, seed=13)
        for word in words:
            assert decode(word) == isa._decode_uncached(word)
        assert isa.decode_cache_size() <= 8
        # Still consistent after the memo was dropped and rebuilt.
        for word in words:
            assert decode(word) == isa._decode_uncached(word)

    def test_handler_table_covers_all_semantics(self):
        """The template table (the one description of instruction
        semantics) covers isa.SEMANTICS, its branch templates are exactly
        the FLOW_BRANCH opcodes, and every opcode has an execute
        function."""
        templates = cpu_mod._TEMPLATES
        assert set(templates) == set(isa.SEMANTICS)
        assert set(cpu_mod._EXECUTE) == set(isa.SEMANTICS)
        assert {
            op for op, text in templates.items() if "BRANCH " in text
        } == {
            op for op, sem in isa.SEMANTICS.items()
            if sem.flow == isa.FLOW_BRANCH
        }
