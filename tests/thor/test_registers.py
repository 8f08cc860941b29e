"""Unit tests for the register file and PSR."""

from repro.thor.registers import Psr, RegisterFile


class TestRegisterFile:
    def test_reset_zeroes(self):
        regs = RegisterFile()
        regs.write(3, 99)
        regs.reset()
        assert regs.read(3) == 0

    def test_values_masked(self):
        regs = RegisterFile()
        regs.write(0, -1)
        assert regs.read(0) == 0xFFFFFFFF

    def test_indexing_protocol(self):
        regs = RegisterFile()
        regs[4] = 7
        assert regs[4] == 7

    def test_snapshot_is_copy(self):
        regs = RegisterFile()
        snap = regs.snapshot()
        snap[0] = 42
        assert regs.read(0) == 0


class TestPsr:
    def test_word_round_trip(self):
        psr = Psr()
        psr.z = True
        psr.v = True
        psr.overflow_enable = True
        word = psr.to_word()
        other = Psr()
        other.from_word(word)
        assert (other.z, other.n, other.c, other.v) == (True, False, False, True)
        assert other.overflow_enable

    def test_bit_positions_match_constants(self):
        psr = Psr()
        psr.from_word(1 << Psr.BIT_C)
        assert psr.c and not (psr.z or psr.n or psr.v)

    def test_scan_flip_changes_one_flag(self):
        # A scan-chain injection flips one PSR bit; verify via word ops.
        psr = Psr()
        psr.c = True
        word = psr.to_word() ^ (1 << Psr.BIT_Z)
        psr.from_word(word)
        assert psr.z
        assert (psr.n, psr.c, psr.v) == (False, True, False)
