"""Unit tests for the pipeline latches and their fault semantics."""

from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu
from repro.thor.isa import Instruction, Opcode, assemble_word
from repro.thor.pipeline import PipelineLatches


class TestLatches:
    def test_reset(self):
        latches = PipelineLatches()
        latches.force_ir(5)
        latches.mar, latches.mdr = 1, 2
        latches.reset()
        assert (latches.ir, latches.mar, latches.mdr) == (0, 0, 0)
        assert not latches.ir_forced

    def test_values_masked(self):
        latches = PipelineLatches()
        latches.force_ir(1 << 40)
        assert latches.ir == 0


class TestForcedIrExecution:
    def _prepared_cpu(self):
        cpu = Cpu()
        program = assemble("ldi r1, 1\nldi r2, 2\nhalt\n")
        cpu.memory.load_image(program.words)
        cpu.reset(entry=program.entry)
        cpu.step()  # executes ldi r1, 1
        return cpu

    def test_forced_ir_replaces_next_instruction(self):
        cpu = self._prepared_cpu()
        # Force "ldi r5, 99" instead of the fetched "ldi r2, 2".
        cpu.pipeline.force_ir(
            assemble_word(Instruction(Opcode.LDI, rd=5, imm=99))
        )
        cpu.step()
        assert cpu.regs[5] == 99
        assert cpu.regs[2] == 0  # the displaced instruction never ran

    def test_forced_ir_is_one_shot(self):
        cpu = self._prepared_cpu()
        cpu.pipeline.force_ir(
            assemble_word(Instruction(Opcode.LDI, rd=5, imm=99))
        )
        cpu.step()
        cpu.step()  # back to normal fetch: executes "halt"? no — pc moved
        assert not cpu.pipeline.ir_forced

    def test_ir_observes_last_fetch(self):
        cpu = self._prepared_cpu()
        word = cpu.memory.peek(0x100)
        assert cpu.pipeline.ir == word

    def test_mar_mdr_observe_last_memory_transaction(self):
        cpu = Cpu()
        program = assemble(
            "ldi r1, buf\nldi r2, 7\nst r2, [r1+0]\nhalt\nbuf: .word 0\n"
        )
        cpu.memory.load_image(program.words)
        cpu.reset(entry=program.entry)
        while not cpu.halted:
            cpu.step()
        assert cpu.pipeline.mar == program.symbols["buf"]
        assert cpu.pipeline.mdr == 7
