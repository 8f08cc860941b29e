"""Block execution: leaders, the compile policy, the shared table, and
generated code that names itself.

The state contract (a block leaves exactly what stepping leaves) is
pinned against the seed core by the run-level lockstep suite in
``tests/properties/test_prop_core_equivalence.py``.
"""

import dataclasses
import gc
import traceback

import pytest

from repro.core import create_target
from repro.thor import cpu as cpu_mod
from repro.thor.assembler import assemble
from repro.thor.cpu import NO_BLOCK, CpuConfig, block_table
from repro.thor.isa import Instruction, Opcode
from repro.thor.testcard import TestCard
from tests.conftest import make_campaign
from tests.reference_core import reference_core

_SOURCE = """
    start:
        LDI  r1, 3
        LDI  r2, buf
    loop:
        LD   r3, [r2+0]
        SUBI r1, r1, 1
        CMPI r1, 0
        BNE  loop
        CALL sub
        SYNC
        HALT
    sub:
        ADDI r4, r4, 1
        RET
    buf:
        .word 7
"""


def _run_until_compiled(program, config=None):
    config = config or CpuConfig()
    table = block_table(program, config)
    card = TestCard(config)
    for _ in range(cpu_mod._COMPILE_AFTER):
        card.init()
        card.load_program(program)
        card.run(timeout_cycles=10_000)
    return card, table


class TestLeaders:
    def test_leaders_are_entry_targets_and_fall_throughs(self):
        program = assemble(_SOURCE)
        symbols = program.symbols
        table = block_table(program, CpuConfig())
        after_bne = symbols["loop"] + 4
        assert table.leaders == {
            symbols["start"],
            symbols["loop"],  # branch target
            after_bne,  # after BNE, and the CALL
            after_bne + 1,  # after CALL: the SYNC
            after_bne + 2,  # after SYNC: the HALT
            symbols["sub"],  # CALL target
        }

    def test_extent_runs_through_the_first_transfer(self):
        program = assemble(_SOURCE)
        table = block_table(program, CpuConfig())
        loop = program.symbols["loop"]
        assert [a for a, _, _ in table.extent(program.symbols["start"])] == [
            loop - 2, loop - 1, loop, loop + 1, loop + 2, loop + 3,
        ]
        assert [i.opcode for _, _, i in table.extent(loop + 4)] == [
            Opcode.CALL
        ]
        # SYNC and HALT run on the step path; data words are no code.
        assert table.extent(loop + 5) == []
        assert table.extent(loop + 6) == []
        assert table.extent(program.symbols["buf"]) == []


class TestCompilePolicy:
    def test_leader_compiles_on_its_kth_entry(self):
        program = assemble(_SOURCE)
        table = block_table(program, CpuConfig())
        loop = program.symbols["loop"]
        for _ in range(cpu_mod._COMPILE_AFTER - 1):
            table.enter(loop)
        assert loop not in table.compiled
        table.enter(loop)
        assert loop in table.compiled
        # Not a leader (mid-block), or a leader without a block: no entry.
        for pc in (loop + 1, loop + 6, 0x9000):
            for _ in range(cpu_mod._COMPILE_AFTER):
                table.enter(pc)
            assert pc not in table.compiled

    def test_blocks_run_once_compiled(self):
        program = assemble(_SOURCE)
        card, table = _run_until_compiled(program)
        assert set(table.compiled) == {
            leader for leader in table.leaders if table.extent(leader)
        }
        ran = []
        shipped = cpu_mod.Cpu.run_block

        def counting(cpu, blocks, limit):
            event = shipped(cpu, blocks, limit)
            ran.append(event is not NO_BLOCK)
            return event

        card.init()
        card.load_program(program)
        cpu_mod.Cpu.run_block = counting
        try:
            card.run(timeout_cycles=10_000)
        finally:
            cpu_mod.Cpu.run_block = shipped
        assert any(ran)

    def test_one_table_per_image_and_config(self):
        program = assemble(_SOURCE)
        table = block_table(program, CpuConfig())
        assert block_table(program, CpuConfig()) is table
        assert block_table(program, CpuConfig(miss_penalty=9)) is not table
        assert block_table(assemble(_SOURCE), CpuConfig()) is not table
        key = (id(program), CpuConfig())
        assert cpu_mod._TABLES[key][1] is table
        del program, table
        gc.collect()
        assert key not in cpu_mod._TABLES


def _canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        rows.append(data)
    return rows


def test_pc_fault_campaign_compiles_only_image_leaders():
    """PC faults send execution through zero memory and data (NOP slides
    to the time-out). Blocks exist only at the image's leaders, so those
    addresses step, and the rows equal the seed core's."""
    campaign = dict(
        campaign_name="pc-faults",
        workload_name="bubblesort",
        location_patterns=["scan:internal/cpu.pc"],
        n_experiments=100,
        seed=5,
    )
    target = create_target("thor-rd")
    rows = _canonical(target.run_campaign(make_campaign(**campaign)))
    with reference_core():
        seed_rows = _canonical(
            create_target("thor-rd").run_campaign(make_campaign(**campaign))
        )
    assert rows == seed_rows
    assert any(row["termination"]["kind"] == "timeout" for row in rows)
    program = target.card.program
    table = block_table(program, target.card.cpu.config)
    assert table.compiled
    assert set(table.compiled) <= table.leaders
    assert table.leaders <= set(program.code_addresses())


class TestGeneratedCodeIsNamed:
    def test_traceback_names_the_op_and_its_line(self):
        execute = cpu_mod._EXECUTE[Opcode.ADD]
        with pytest.raises(AttributeError) as info:
            execute(None, Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        text = "".join(traceback.format_tb(info.value.__traceback__))
        assert 'File "<thor-op ADD>", line 2, in execute' in text
        assert "regs = cpu._regs" in text

    def test_traceback_names_the_block_and_its_line(self):
        program = assemble(_SOURCE)
        card, table = _run_until_compiled(program)
        card.init()
        card.load_program(program)

        shipped_read = card.cpu.dcache.read
        calls = []

        def read_once(address, bus):
            # The first pass through the loop steps (the I-cache is
            # cold); the second runs as a block.
            calls.append(address)
            if len(calls) > 1:
                raise RuntimeError("D-cache read failed")
            return shipped_read(address, bus)

        card.cpu.dcache.read = read_once
        with pytest.raises(RuntimeError) as info:
            card.run(timeout_cycles=10_000)
        frames = [
            frame for frame in traceback.extract_tb(info.value.__traceback__)
            if frame.filename.startswith("<thor-")
        ]
        loop = program.symbols["loop"]
        assert len(frames) == 1
        assert frames[0].filename.startswith(f"<thor-block {loop:#06x} ")
        assert frames[0].line == "value, extra = dcache.read(address, bus)"
