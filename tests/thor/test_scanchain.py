"""Unit tests for the scan chains."""

import pytest

from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu
from repro.thor.scanchain import ScanCell, ScanChain, build_scan_chains
from repro.util.bits import bits_to_int, int_to_bits
from repro.util.errors import TargetError


def make_cpu_with_state():
    cpu = Cpu()
    program = assemble(
        "ldi r1, 0x123\nldi r2, buf\nld r3, [r2+0]\nhalt\nbuf: .word 77\n"
    )
    cpu.memory.load_image(program.words)
    cpu.reset(entry=program.entry)
    while not cpu.halted:
        cpu.step()
    return cpu


class TestChainStructure:
    def test_total_bits_is_sum_of_cells(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        assert chain.total_bits == sum(c.width for c in chain.cells())

    def test_bit_offset_and_locate_are_inverse(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        offset = chain.bit_offset("cpu.regfile.r3", 17)
        assert chain.locate(offset) == ("cpu.regfile.r3", 17)

    def test_unknown_cell_raises(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        with pytest.raises(TargetError):
            chain.bit_offset("cpu.regfile.r99", 0)

    def test_bit_out_of_cell_range_raises(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        with pytest.raises(TargetError):
            chain.bit_offset("cpu.psr", 9)

    def test_duplicate_paths_rejected(self):
        cell = ScanCell("x", 1, lambda: 0)
        with pytest.raises(TargetError):
            ScanChain("c", [cell, ScanCell("x", 1, lambda: 0)])

    def test_describe_lists_read_only(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        info = {item["path"]: item for item in chain.describe()}
        assert info["cpu.cycle_counter"]["read_only"]
        assert not info["cpu.regfile.r0"]["read_only"]

    def test_shift_cycles_equals_length(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        assert chain.shift_cycles == chain.total_bits


class TestReadWrite:
    def test_read_reflects_register_state(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        offset = chain.bit_offset("cpu.regfile.r1", 0)
        value = bits_to_int(bits[offset:offset + 32])
        assert value == 0x123

    def test_write_back_unchanged_is_identity(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        chain.write(bits)
        assert chain.read() == bits

    def test_unchanged_writeback_does_not_force_ir(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        chain.write(chain.read())
        assert not cpu.pipeline.ir_forced

    def test_flip_register_bit(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        offset = chain.bit_offset("cpu.regfile.r1", 4)
        bits[offset] ^= 1
        chain.write(bits)
        assert cpu.regs[1] == 0x123 ^ (1 << 4)

    def test_write_to_read_only_cell_ignored(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        offset = chain.bit_offset("cpu.cycle_counter", 0)
        before = cpu.cycles
        bits[offset] ^= 1
        chain.write(bits)
        assert cpu.cycles == before

    def test_wrong_length_rejected(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        with pytest.raises(TargetError):
            chain.write([0])

    def test_ir_write_forces_pipeline(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        offset = chain.bit_offset("cpu.pipeline.ir", 0)
        bits[offset] ^= 1
        chain.write(bits)
        assert cpu.pipeline.ir_forced

    def test_cache_cells_survive_reset(self):
        # Cells must track the cache object across cache.reset(), which
        # replaces the CacheLine instances.
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        offset = chain.bit_offset("dcache.line0.valid", 0)
        cpu.dcache.reset()
        bits2 = chain.read()
        assert bits2[offset] == 0  # reads the *new* line object

    def test_operation_counters(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        chain.read()
        chain.write(chain.read())
        assert chain.reads == 2
        assert chain.writes == 1


class TestBoundaryChain:
    def test_pins_observe_bus_latches(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["boundary"]
        bits = chain.read()
        offset = chain.bit_offset("pins.data_bus", 0)
        value = bits_to_int(bits[offset:offset + 32])
        assert value == 77  # last memory transaction data

    def test_halt_pin(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["boundary"]
        bits = chain.read()
        offset = chain.bit_offset("pins.halt", 0)
        assert bits[offset] == 1


class TestChainImage:
    def test_bit_list_interface(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        bits = list(image)
        assert len(image) == len(bits) == chain.total_bits
        offset = chain.bit_offset("cpu.regfile.r1", 0)
        assert image[offset : offset + 32] == int_to_bits(0x123, 32)
        assert [image[i] for i in range(len(image))] == bits
        assert image[-1] == bits[-1]
        assert image == bits and image == chain.read()
        bits[offset] ^= 1
        assert image != bits
        image[offset] = True
        assert image[offset] == 1
        with pytest.raises(IndexError):
            image[chain.total_bits]

    def test_write_lands_only_changed_cells(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        written = []
        for index, writer in enumerate(chain._writers):
            if writer is not None:
                chain._writers[index] = (
                    lambda v, i=index, w=writer: (written.append(i), w(v))
                )
        image[chain.bit_offset("cpu.regfile.r2", 3)] ^= 1
        chain.write(image)
        assert written == [chain.index("cpu.regfile.r2")]

    def test_write_puts_back_a_cell_changed_since_the_read(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        cpu.regs[4] = 99
        chain.write(image)
        assert cpu.regs[4] == 0


class TestRejectedWrite:
    """A non-binary bit anywhere rejects the whole write before any
    cell lands."""

    def _bits(self, chain):
        bits = list(chain.read())
        bits[chain.bit_offset("cpu.regfile.r1", 0)] = 1
        return bits

    def test_bit_list_is_validated_whole_first(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        bits = self._bits(chain)
        bits[chain.bit_offset("dcache.line0.word0", 3)] = 2
        with pytest.raises(ValueError, match="dcache.line0.word0"):
            chain.write(bits)
        assert cpu.regs[1] == 0

    def test_image_rejects_at_assignment(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        image[chain.bit_offset("cpu.regfile.r1", 0)] = 1
        with pytest.raises(ValueError, match="dcache.line0.word0"):
            image[chain.bit_offset("dcache.line0.word0", 3)] = 2
        chain.write(image)
        assert cpu.regs[1] == 1
        assert cpu.dcache.lines[0].data[0] == 0

    def test_non_binary_bit_in_read_only_cell_rejected(self):
        cpu = Cpu()
        chain = build_scan_chains(cpu)["internal"]
        bits = self._bits(chain)
        bits[chain.bit_offset("cpu.cycle_counter", 0)] = 2
        with pytest.raises(ValueError, match="cpu.cycle_counter"):
            chain.write(bits)
        assert cpu.regs[1] == 0
        with pytest.raises(ValueError, match="cpu.cycle_counter"):
            chain.read()[chain.bit_offset("cpu.cycle_counter", 0)] = 2

    def test_binary_bits_in_read_only_cells_still_ignored(self):
        cpu = make_cpu_with_state()
        chain = build_scan_chains(cpu)["internal"]
        image = chain.read()
        image[chain.bit_offset("cpu.instret_counter", 2)] ^= 1
        before = cpu.instret
        chain.write(image)
        assert cpu.instret == before
