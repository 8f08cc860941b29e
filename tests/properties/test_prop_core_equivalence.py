"""Property test: the shipped core is row-identical to the seed core.

:meth:`repro.thor.cpu.Cpu.step` (memoized fused fetch/decode/execute
over per-opcode handlers) must be *extensionally invisible*: for any
campaign shape, every logged experiment row — injections drawn,
termination kind and detail, outputs, observed state vectors, cycle
counts — must equal what the seed's straight-line decode/if-chain core
(``tests/reference_core.py``) produces. Hypothesis drives technique,
seed, campaign size and workload; the invariant is exact equality of the
canonicalised rows (only the nondeterministic wall-clock field is
zeroed). A lockstep suite pins the same two cores instruction by
instruction on programs that walk every trap path.

This is the correctness gate for the core: the E18 benchmark measures
the same two cores and is only meaningful because this suite pins them
to identical behaviour.
"""

import ast
import dataclasses
import inspect
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import create_target
from repro.thor import isa
from repro.thor.assembler import assemble
from repro.thor.cpu import Cpu, CpuConfig
from repro.thor.isa import Instruction, Opcode, assemble_word
from repro.thor.testcard import TestCard
from repro.thor.traps import Trap
from tests.conftest import make_campaign
from tests.reference_core import reference_core, reference_step

_TECHNIQUE_PATTERNS = {
    "scifi": ["scan:internal/cpu.regfile.*"],
    "simfi": ["scan:internal/cpu.regfile.*", "memory:data/*"],
    "pinlevel": ["scan:boundary/pins.data_bus"],
    "swifi-runtime": ["memory:data/*"],
}

campaign_shapes = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(sorted(_TECHNIQUE_PATTERNS)),
        "seed": st.integers(min_value=0, max_value=2**16),
        "n_experiments": st.integers(min_value=1, max_value=6),
        "workload_name": st.sampled_from(["vecsum", "bubblesort"]),
        "warm_start": st.booleans(),
    }
)


def _canonical(sink):
    rows = []
    for result in sink.results:
        data = dataclasses.asdict(result)
        data["wall_seconds"] = 0.0
        rows.append(data)
    return rows


def _run(shape):
    campaign = make_campaign(
        campaign_name="core-equivalence-prop",
        technique=shape["technique"],
        location_patterns=_TECHNIQUE_PATTERNS[shape["technique"]],
        seed=shape["seed"],
        n_experiments=shape["n_experiments"],
        workload_name=shape["workload_name"],
        warm_start=shape["warm_start"],
    )
    target = create_target("thor-rd")
    return _canonical(target.run_campaign(campaign))


# -- lockstep cases ------------------------------------------------------------

#: The first opcode field value that decodes to no instruction.
_ILLEGAL_WORD = next(
    code << 26 for code in range(64) if isa.try_decode(code << 26) is None
)

_LOOP = """
        LDI  r1, 3
    loop:
        ADDI r1, r1, -1
        CMPI r1, 0
        BNE  loop
        HALT
"""

_WORKOUT = """
    start:
        LDI  r14, 0xE000   ; stack pointer
        LDI  r1, 100
        LDI  r2, 3
    loop:
        MUL  r3, r1, r2
        DIV  r4, r3, r2
        ADDI r1, r1, -1
        ST   r3, [r1+0x200]
        LD   r5, [r1+0x200]
        PUSH r5
        POP  r6
        CMPI r1, 0
        BNE  loop
        HALT
"""

_LOAD_TWICE = """
        LDI  r1, buf
        LD   r2, [r1+0]
        LD   r3, [r1+0]
        HALT
    buf:
        .word 0x1234
"""

_LOAD_THEN_STORE = """
        LDI  r1, buf
        LD   r2, [r1+0]
        ST   r2, [r1+1]
        HALT
    buf:
        .word 0x1234, 0
"""


def _at(step_index, action):
    """Perturbation that applies ``action(cpu)`` just before step
    ``step_index`` (0-based)."""

    def perturb(cpu, index):
        if index == step_index:
            action(cpu)

    return perturb


def _force_ir(word):
    return lambda cpu: cpu.pipeline.force_ir(word)


def _protect_code(cpu):
    cpu.memory.protect(0x100, 0x1FF)


def _flip_valid_lines(which, field):
    """Flip bit 0 of ``field`` ("data" or "tag_parity") in every valid
    line of ``cpu.<which>``: the next access to such a line fails its
    parity check."""

    def action(cpu):
        for line in getattr(cpu, which).lines:
            if not line.valid:
                continue
            if field == "data":
                for offset in range(len(line.data)):
                    line.data[offset] ^= 1
            else:
                line.tag_parity ^= 1

    return action


#: (case id, program source, CpuConfig, per-step perturbation or None,
#: expected final trap or None for HALT).
LOCKSTEP_CASES = [
    ("workout", _WORKOUT, CpuConfig(), None, None),
    (
        "illegal-opcode-in-memory",
        f"LDI r1, 1\n.word {_ILLEGAL_WORD:#x}\nHALT\n",
        CpuConfig(), None, Trap.ILLEGAL_OPCODE,
    ),
    (
        "illegal-opcode-forced-ir",
        _LOOP, CpuConfig(), _at(2, _force_ir(_ILLEGAL_WORD)),
        Trap.ILLEGAL_OPCODE,
    ),
    (
        "fetch-out-of-range",
        "LDI r1, -4\nJR r1\n", CpuConfig(), None, Trap.ILLEGAL_ADDRESS,
    ),
    (
        "load-out-of-range",
        "LDI r1, -1\nLD r2, [r1+0]\nHALT\n", CpuConfig(), None,
        Trap.ILLEGAL_ADDRESS,
    ),
    (
        "pop-out-of-range",
        "LDI r14, -1\nPOP r2\nHALT\n", CpuConfig(), None,
        Trap.ILLEGAL_ADDRESS,
    ),
    (
        "store-write-protected",
        "LDI r1, 0x100\nLDI r2, 7\nST r2, [r1+0]\nHALT\n",
        CpuConfig(), _at(0, _protect_code), Trap.ILLEGAL_ADDRESS,
    ),
    (
        # SP moves before the store traps.
        "push-write-protected",
        "LDI r14, 0x101\nLDI r2, 7\nPUSH r2\nHALT\n",
        CpuConfig(), _at(0, _protect_code), Trap.ILLEGAL_ADDRESS,
    ),
    (
        "div-zero",
        "LDI r1, 5\nLDI r2, 0\nDIV r3, r1, r2\nHALT\n",
        CpuConfig(), None, Trap.DIV_ZERO,
    ),
    (
        "add-overflow-trap",
        "LUI r1, 0x1FFFF\nADD r2, r1, r1\nHALT\n",
        CpuConfig(overflow_trap=True), None, Trap.OVERFLOW,
    ),
    (
        "software-trap",
        "LDI r1, 1\nTRAP 7\nHALT\n", CpuConfig(), None, Trap.SOFTWARE,
    ),
    (
        # The loop's cycle count reaches the budget exactly (39), so an
        # off-by-one in the budget comparison shows.
        "watchdog",
        "loop:\nADDI r1, r1, 1\nJMP loop\n",
        CpuConfig(watchdog_cycles=39), None, Trap.WATCHDOG,
    ),
    (
        "sync",
        "LDI r1, 3\nloop:\nSYNC\nSUBI r1, r1, 1\nCMPI r1, 0\nBNE loop\n"
        "HALT\n",
        CpuConfig(), None, None,
    ),
    (
        "mmio-load-store",
        "LDI r1, 0xFF00\nLD r2, [r1+0]\nADDI r2, r2, 5\nST r2, [r1+0x40]\n"
        "HALT\n",
        CpuConfig(), _at(0, lambda cpu: cpu.memory.poke(0xFF00, 37)), None,
    ),
    (
        "icache-data-parity",
        _LOOP, CpuConfig(), _at(4, _flip_valid_lines("icache", "data")),
        Trap.ICACHE_PARITY,
    ),
    (
        "dcache-data-parity-before-load",
        _LOAD_TWICE, CpuConfig(), _at(2, _flip_valid_lines("dcache", "data")),
        Trap.DCACHE_PARITY,
    ),
    (
        "dcache-tag-parity-before-store",
        _LOAD_THEN_STORE, CpuConfig(),
        _at(2, _flip_valid_lines("dcache", "tag_parity")),
        Trap.DCACHE_PARITY,
    ),
    (
        "forced-legal-ir",
        _LOOP, CpuConfig(),
        _at(1, _force_ir(assemble_word(Instruction(Opcode.LDI, rd=5, imm=99)))),
        None,
    ),
    (
        "extest-bus-forcing",
        _LOAD_THEN_STORE, CpuConfig(),
        _at(1, lambda cpu: cpu.bus.arm_force(0xFF, 0xA5, 4)), None,
    ),
]


class TestCoreEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shape=campaign_shapes)
    def test_fast_rows_equal_reference_rows(self, shape):
        fast = _run(shape)
        with reference_core():
            reference = _run(shape)
        assert fast == reference

    def test_reference_core_patches_step(self):
        shipped = Cpu.step
        with reference_core():
            assert Cpu.step is reference_step
            assert Cpu().step.__func__ is reference_step
        assert Cpu.step is shipped
        with pytest.raises(RuntimeError):
            with reference_core():
                raise RuntimeError("leaves the block")
        assert Cpu.step is shipped

    def test_oracle_is_independent(self):
        """The oracle names nothing from the handler table it checks, so
        a handler bug cannot hide in both cores."""
        tree = ast.parse(inspect.getsource(inspect.getmodule(reference_step)))
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert not {
            name for name in names
            if name in ("_HANDLERS", "_EXEC_CACHE", "_exec_entry")
            or name.startswith("_h_")
        }

    @pytest.mark.parametrize(
        "source, config, perturb, expected",
        [case[1:] for case in LOCKSTEP_CASES],
        ids=[case[0] for case in LOCKSTEP_CASES],
    )
    def test_single_step_state_identical_on_program(
        self, source, config, perturb, expected
    ):
        """Cheap direct pin (no campaign machinery): stepping the same
        program under both cores, with the same perturbation before each
        step, yields identical events and state every step — traps,
        partial effects of faulting instructions, memory and cache
        statistics included."""
        program = assemble(source)
        cards = []
        for _ in range(2):
            card = TestCard(config)
            card.init()
            card.load_program(program)
            cards.append(card)
        fast, ref = (card.cpu for card in cards)
        ref.step = types.MethodType(reference_step, ref)
        for index in range(2000):
            if fast.halted:
                break
            if perturb is not None:
                perturb(fast, index)
                perturb(ref, index)
            # Events compare kind, iteration and the whole TrapEvent
            # (trap, pc, cycle, detail, code).
            assert fast.step() == ref.step()
            assert fast.snapshot() == ref.snapshot()
            assert fast.memory._words == ref.memory._words
            assert fast.trap_event == ref.trap_event
            assert fast.halted == ref.halted
            assert fast.icache.stats == ref.icache.stats
            assert fast.dcache.stats == ref.dcache.stats
        assert fast.halted and ref.halted
        final = None if fast.trap_event is None else fast.trap_event.trap
        assert final is expected
