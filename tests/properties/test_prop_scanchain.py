"""Property-based tests for scan-chain invariants."""

from hypothesis import given, settings, strategies as st

from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu
from repro.thor.scanchain import build_scan_chains
from repro.thor.testcard import TestCard
from repro.tsm.board import TsmBoard
from repro.tsm.workloads import get_tsm_workload
from tests.reference_scanchain import (
    reference_read,
    reference_read_chain,
    reference_write_chain,
)

LOOP = (
    "start:\n"
    "  ldi r1, 10\n"
    "  ldi r2, buf\n"
    "loop:\n"
    "  st  r1, [r2+0]\n"
    "  ld  r3, [r2+0]\n"
    "  addi r2, r2, 1\n"
    "  subi r1, r1, 1\n"
    "  cmpi r1, 0\n"
    "  bne loop\n"
    "  halt\n"
    "buf: .space 16\n"
)


def make_cpu(steps: int) -> Cpu:
    cpu = Cpu()
    program = assemble(LOOP)
    cpu.memory.load_image(program.words)
    cpu.reset(entry=program.entry)
    for _ in range(steps):
        if cpu.halted:
            break
        cpu.step()
    return cpu


class TestScanInvariants:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_read_is_stable(self, steps):
        """Reading the chain twice without stepping yields identical bits
        (observation does not disturb state)."""
        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        assert chain.read() == chain.read()

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_read_write_read_is_identity(self, steps):
        """A full read-modify-nothing-write cycle is state-preserving at
        any stop point — required for Figure 2's read/inject/write flow
        to only change the injected bits."""
        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        chain.write(bits)
        assert chain.read() == bits

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_flip_touches_exactly_one_writable_cell(self, steps, seed):
        import random

        cpu = make_cpu(steps)
        chain = build_scan_chains(cpu)["internal"]
        bits = chain.read()
        rng = random.Random(seed)
        writable_offsets = [
            chain.bit_offset(cell.path, bit)
            for cell in chain.cells()
            if not cell.read_only
            for bit in range(cell.width)
        ]
        offset = rng.choice(writable_offsets)
        bits[offset] ^= 1
        chain.write(bits)
        after = chain.read()
        diff = [i for i in range(chain.total_bits) if after[i] != bits[i]]
        # Everything we wrote must now read back exactly (no hidden
        # coupling between cells).
        assert diff == []


# -- the chain image and the compiled reader against the bit-list oracle ------

#: (board kind, chain name) for every chain a port shifts.
CHAINS = [("thor", "internal"), ("thor", "boundary"), ("tsm", "internal")]


def make_board(kind: str, steps: int):
    """A THOR test card stepped ``steps`` instructions into the loop
    program above, or a TSM board run ``steps`` cycles into factorial."""
    if kind == "thor":
        card = TestCard()
        card.init()
        card.load_program(assemble(LOOP))
        for _ in range(steps):
            if card.cpu.halted:
                break
            card.cpu.step()
        return card
    board = TsmBoard()
    board.init()
    board.load_program(get_tsm_workload("factorial").program)
    if steps:
        board.run(timeout_cycles=100_000, stop_cycle=steps)
    return board


def cell_values(chain):
    return [cell.reader() for cell in chain.cells()]


class TestImageAgainstOracle:
    @given(
        chain=st.sampled_from(CHAINS),
        steps=st.integers(min_value=0, max_value=60),
        flips=st.lists(st.integers(min_value=0, max_value=10**6), max_size=6),
        flip_ir=st.booleans(),
        flip_read_only=st.booleans(),
        live=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=2**32 - 1),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_write_back_equals_oracle(
        self, chain, steps, flips, flip_ir, flip_read_only, live
    ):
        """Read, flip random bits (read-only cells and the IR included),
        change one writable cell live, write back: the image path leaves
        the state, counters and scan cycles the bit-list oracle leaves,
        and puts the live-changed cell back as the oracle does."""
        kind, name = chain
        shipped, oracle = make_board(kind, steps), make_board(kind, steps)
        structure = shipped.chain(name)
        positions = [flip % structure.total_bits for flip in flips]
        if flip_ir and structure.cells()[0].path == "cpu.pc":
            positions.append(structure.bit_offset("cpu.pipeline.ir", steps % 32))
        read_only = [cell for cell in structure.cells() if cell.read_only]
        if flip_read_only and read_only:
            cell = read_only[steps % len(read_only)]
            positions.append(structure.bit_offset(cell.path, steps % cell.width))

        image = shipped.read_chain(name)
        bits = reference_read_chain(oracle, name)
        assert list(image) == bits
        for position in positions:
            image[position] ^= 1
            bits[position] ^= 1
        assert image == bits

        if live is not None:
            which, mask = live
            writable = [c.path for c in structure.cells() if not c.read_only]
            path = writable[which % len(writable)]
            for board in (shipped, oracle):
                cell = board.chain(name).cell(path)
                cell.writer(cell.reader() ^ (mask % (1 << cell.width) or 1))

        shipped.write_chain(name, image)
        reference_write_chain(oracle, name, bits)

        shipped_chain, oracle_chain = shipped.chain(name), oracle.chain(name)
        assert cell_values(shipped_chain) == cell_values(oracle_chain)
        assert shipped_chain.reads == oracle_chain.reads == 1
        assert shipped_chain.writes == oracle_chain.writes == 1
        assert shipped.total_scan_cycles == oracle.total_scan_cycles
        if kind == "thor":
            assert shipped.cpu.pipeline.ir_forced == oracle.cpu.pipeline.ir_forced
            assert shipped.cpu.snapshot() == oracle.cpu.snapshot()

    @given(
        chain=st.sampled_from(CHAINS),
        steps=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_compiled_reader_equals_cell_readers(self, chain, steps):
        """The generated chain reader returns what the cells' own
        readers return, also after ``cache.reset()`` replaced the lines,
        and the image reads as the oracle's bit list."""
        kind, name = chain
        board = make_board(kind, steps)
        scan = board.chain(name)
        assert scan.read_values() == cell_values(scan)
        assert list(scan.capture_words()) == cell_values(scan)
        assert scan.read() == reference_read(scan)
        if kind == "thor":
            board.cpu.icache.reset()
            board.cpu.dcache.reset()
            assert scan.read_values() == cell_values(scan)
            assert scan.read() == reference_read(scan)
