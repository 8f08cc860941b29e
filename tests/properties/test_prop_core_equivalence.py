"""Property test: the shipped core is row-identical to the seed core.

:meth:`repro.thor.cpu.Cpu.step` (memoized fused fetch/decode/execute
over per-opcode execute functions) and the compiled blocks
:meth:`repro.thor.cpu.Cpu.run_block` runs, both instantiated from one
template table, must be *extensionally invisible*: for any
campaign shape, every logged experiment row — injections drawn,
termination kind and detail, outputs, observed state vectors, cycle
counts — must equal what the seed's straight-line decode/if-chain core
(``tests/reference_core.py``) produces. Hypothesis drives technique,
seed, campaign size and workload; the invariant is exact equality of the
canonicalised rows (only the nondeterministic wall-clock field is
zeroed). A lockstep suite pins the same two cores instruction by
instruction on programs that walk every trap path, and a run-level
lockstep suite pins ``TestCard.run`` with blocks against the seed core
over sequences of stops, including stops, time-outs and watchdog budgets
that fall inside a block, traps inside blocks and faults in the lines a
block fetches.

This is the correctness gate for the core: the E18 benchmark measures
the same two cores and is only meaningful because this suite pins them
to identical behaviour.
"""

import ast
import dataclasses
import inspect
import itertools
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import create_target
from repro.thor import isa
from repro.thor.assembler import assemble
from repro.thor import cpu as cpu_mod
from repro.thor.cpu import NO_BLOCK, Cpu, CpuConfig, block_table
from repro.thor.isa import Instruction, Opcode, assemble_word
from repro.thor.testcard import DebugEventKind, TestCard
from repro.thor.traps import Trap
from repro.workloads.library import available_workloads, get_workload
from tests.conftest import make_campaign
from tests.reference_core import decline_block, reference_core, reference_step

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
        """The oracle swaps the step and turns the block path off, and
        restores both, also when the block raises."""
        shipped = (Cpu.step, Cpu.run_block)
        with reference_core():
            assert Cpu.step is reference_step
            assert Cpu().step.__func__ is reference_step
            assert Cpu.run_block is decline_block
            assert Cpu().run_block(None, 1 << 30) is NO_BLOCK
        assert (Cpu.step, Cpu.run_block) == shipped
        with pytest.raises(RuntimeError):
            with reference_core():
                raise RuntimeError("leaves the block")
        assert (Cpu.step, Cpu.run_block) == shipped

    def test_oracle_is_independent(self):
        """The oracle names nothing from the template table, the exec
        cache or the block compiler it checks, so a template bug cannot
        hide in both cores."""
        tree = ast.parse(inspect.getsource(inspect.getmodule(reference_step)))
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert not {
            name for name in names
            if name in (
                "_TEMPLATES", "_EXECUTE", "_EXEC_CACHE", "_exec_entry",
                "_expand", "_compile", "_execute_source", "_block_source",
                "_block_trap", "BlockTable", "block_table",
            )
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


# -- run-level lockstep with blocks ------------------------------------------------

#: Loops in which blocks run before the case's perturbation lands, and
#: then trap, stop or decline inside a block.
_LD_LOOP = """
        LDI  r1, buf
        LDI  r2, 400
    loop:
        LD   r3, [r1+0]
        SUBI r2, r2, 1
        CMPI r2, 0
        BNE  loop
        HALT
    buf:
        .word 0x1234
"""

_ST_LOOP = """
        LDI  r1, 0x180
        LDI  r2, 400
    loop:
        ST   r2, [r1+0]
        SUBI r2, r2, 1
        CMPI r2, 0
        BNE  loop
        HALT
"""

_PUSH_LOOP = """
        LDI  r14, 0x1F0
        LDI  r2, 400
    loop:
        PUSH r2
        POP  r3
        SUBI r2, r2, 1
        CMPI r2, 0
        BNE  loop
        HALT
"""

_LONG_LOOP = """
        LDI  r1, 400
    loop:
        ADDI r1, r1, -1
        ADDI r2, r2, 3
        CMPI r1, 0
        BNE  loop
        HALT
"""

_DIV_LOOP = """
        LDI  r1, 400
        LDI  r4, 7
    loop:
        DIV  r3, r1, r4
        ADDI r1, r1, -1
        CMPI r1, 0
        BNE  loop
        HALT
"""

#: Spins on a load, so a block's worst case (a miss) exceeds its cost.
_SPIN = "LDI r1, 0x180\nloop:\nLD r2, [r1+0]\nADDI r3, r3, 1\nJMP loop\n"


def _on_cpu(perturb):
    return None if perturb is None else (
        lambda card, index: perturb(card.cpu, index)
    )


def _at_leader(action):
    """At stop 2, apply ``action(cpu)`` and resume at ``_LONG_LOOP``'s
    leader 0x101, so the block there meets the change."""

    def resume(cpu):
        action(cpu)
        cpu.pc = 0x101

    return _on_cpu(_at(2, resume))


def _flip_icache(address, field):
    """Flip bit 0 of ``field`` in the I-cache line holding ``address``
    (its data word or data-parity bit at that offset, its tag, tag
    parity or valid bit)."""

    def action(cpu):
        icache = cpu.icache
        line = icache.lines[(address // icache.words_per_line) % icache.n_lines]
        offset = address % icache.words_per_line
        if field in ("data", "data_parity"):
            getattr(line, field)[offset] ^= 1
        else:
            setattr(line, field, getattr(line, field) ^ 1)

    return action


def _stale_last_exec_at(leader, *register):
    """Resume at ``leader`` (a PC fault) with a memory-access record left
    in ``last_exec`` (a restored snapshot can carry one), and optionally
    a register write: the block at ``leader`` runs first and must clear
    the record whether it exits or traps."""

    def action(cpu):
        cpu.pc = leader
        last = cpu.last_exec
        last.mem_address = 0x1234
        last.mem_value = 7
        last.mem_is_write = True
        if register:
            cpu.regs.write(*register)

    return action


def _breakpoint_window(card, index):
    """A breakpoint inside ``_LONG_LOOP``'s block (not at a leader) from
    stop 2 to stop 8: no block may run past it."""
    if index == 2:
        card.set_breakpoints([0x103])
    elif index == 8:
        card.clear_breakpoints()


#: (case id, program source, CpuConfig, card-level perturbation or None,
#: run time-out, how the last run ends (a Trap or a DebugEventKind),
#: whether that trap is raised inside a block). Every case runs blocks
#: on the shipped leg.
BLOCK_CASES = [
    # The entry check declines the block whose line was hit, and the
    # stepped fetch traps (or, for an invalidated line, misses and
    # refills it).
    ("icache-data-flip", _LONG_LOOP, CpuConfig(),
     _at_leader(_flip_icache(0x102, "data")), 20_000,
     Trap.ICACHE_PARITY, False),
    ("icache-data-parity-flip", _LONG_LOOP, CpuConfig(),
     _at_leader(_flip_icache(0x103, "data_parity")), 20_000,
     Trap.ICACHE_PARITY, False),
    ("icache-tag-flip", _LONG_LOOP, CpuConfig(),
     _at_leader(_flip_icache(0x101, "tag")), 20_000,
     Trap.ICACHE_PARITY, False),
    ("icache-tag-parity-flip", _LONG_LOOP, CpuConfig(),
     _at_leader(_flip_icache(0x101, "tag_parity")), 20_000,
     Trap.ICACHE_PARITY, False),
    ("icache-valid-flip", _LONG_LOOP, CpuConfig(),
     _at_leader(_flip_icache(0x104, "valid")), 20_000,
     DebugEventKind.HALT, False),
    ("stale-last-exec-block-exit", _LONG_LOOP, CpuConfig(),
     _on_cpu(_at(2, _stale_last_exec_at(0x101))), 20_000,
     DebugEventKind.HALT, False),
    ("stale-last-exec-block-trap", _DIV_LOOP, CpuConfig(),
     _on_cpu(_at(2, _stale_last_exec_at(0x102, 4, 0))), 20_000,
     Trap.DIV_ZERO, True),
    ("dcache-parity-before-in-block-load", _LD_LOOP, CpuConfig(),
     _on_cpu(_at(2, _flip_valid_lines("dcache", "data"))), 20_000,
     Trap.DCACHE_PARITY, True),
    ("write-protected-store-in-block", _ST_LOOP, CpuConfig(),
     _on_cpu(_at(2, lambda cpu: cpu.memory.protect(0x180, 0x180))), 20_000,
     Trap.ILLEGAL_ADDRESS, True),
    ("write-protected-push-in-block", _PUSH_LOOP, CpuConfig(),
     _on_cpu(_at(2, lambda cpu: cpu.memory.protect(0x1E0, 0x1EF))), 20_000,
     Trap.ILLEGAL_ADDRESS, True),
    # A register write at the stop makes the next in-block DIV divide by
    # zero, and the next in-block ADD overflow.
    ("div-zero-in-block", _DIV_LOOP, CpuConfig(),
     _on_cpu(_at(2, lambda cpu: cpu.regs.write(4, 0))), 20_000,
     Trap.DIV_ZERO, True),
    (
        "add-overflow-in-block",
        "LDI r1, 400\nloop:\nADD r3, r4, r4\nADDI r1, r1, -1\n"
        "CMPI r1, 0\nBNE loop\nHALT\n",
        CpuConfig(overflow_trap=True),
        _on_cpu(_at(2, lambda cpu: cpu.regs.write(4, 0x40000000))), 20_000,
        Trap.OVERFLOW, True,
    ),
    # The budget and the watchdog land inside a block's worst case, so
    # the block declines and the last instructions step.
    ("timeout-in-block", _SPIN, CpuConfig(), None, 4_001,
     DebugEventKind.TIMEOUT, False),
    ("watchdog-in-block", _SPIN, CpuConfig(watchdog_cycles=2_003), None,
     20_000, Trap.WATCHDOG, False),
] + [
    # Blocks whose worst case is their cost: one of the budgets falls on
    # the last cycle of a block, where only the watchdog would see an
    # overrun.
    (f"watchdog-at-block-end-{kind}-{budget}", source,
     CpuConfig(watchdog_cycles=budget), None, 20_000, Trap.WATCHDOG, False)
    for kind, source in (
        ("alu", "loop:\nADDI r1, r1, 1\nJMP loop\n"),
        ("mmio-store", "LDI r1, 0xFF40\nloop:\nST r1, [r1+0]\nJMP loop\n"),
    )
    for budget in range(2_000, 2_005)
] + [
    (
        "mmio-store-in-block",
        "LDI r1, 0xFF40\nLDI r2, 400\nloop:\nST r2, [r1+0]\nSUBI r2, r2, 1\n"
        "CMPI r2, 0\nBNE loop\nHALT\n",
        CpuConfig(), None, 20_000, DebugEventKind.HALT, False,
    ),
    (
        "mmio-load-store-in-block",
        "LDI r1, 0xFF00\nLDI r2, 200\nloop:\nLD r3, [r1+0]\nADDI r3, r3, 5\n"
        "ST r3, [r1+0x40]\nSUBI r2, r2, 1\nCMPI r2, 0\nBNE loop\nHALT\n",
        CpuConfig(), _on_cpu(_at(0, lambda cpu: cpu.memory.poke(0xFF00, 37))),
        20_000, DebugEventKind.HALT, False,
    ),
    ("forced-ir-after-blocks", _LONG_LOOP, CpuConfig(),
     _at_leader(_force_ir(_ILLEGAL_WORD)), 20_000,
     Trap.ILLEGAL_OPCODE, False),
    ("breakpoint-set", _LONG_LOOP, CpuConfig(), _breakpoint_window, 20_000,
     DebugEventKind.HALT, False),
]

#: Library workloads that need no environment simulator.
_LIBRARY = [
    name for name in available_workloads()
    if not get_workload(name).uses_environment
]


def _load(card, program, input_writes):
    card.init()
    card.load_program(program)
    for address, value in input_writes.items():
        card.write_memory(address, value)


def _warm(program, config, input_writes, timeout):
    """Run ``program`` on throwaway cards until every leader with a block
    has compiled (or as often as a leader needs entries to compile)."""
    table = block_table(program, config)
    card = TestCard(config)
    for _ in range(cpu_mod._COMPILE_AFTER):
        if set(table.compiled) == {
            leader for leader in table.leaders if table.extent(leader)
        }:
            break
        _load(card, program, input_writes)
        card.run(timeout_cycles=timeout)
    assert table.compiled, "no block compiled while warming"
    return table


def _counting(card, counter):
    """Count the blocks ``card`` runs, and the traps they raise, through
    whatever ``Cpu.run_block`` is in force (the oracle's declines count
    nothing)."""
    cpu = card.cpu

    def run_block(blocks, limit):
        event = type(cpu).run_block(cpu, blocks, limit)
        if event is not NO_BLOCK:
            counter[0] += 1
            counter[1] += event is not None
        return event

    cpu.run_block = run_block
    return card


def _prime_icache(card, program):
    """Fill the I-cache from the image's code, so straight-line code can
    run as a block on its first pass. Both legs start from it."""
    cpu = card.cpu
    for address in program.code_addresses():
        cpu.icache.read(address, cpu.bus)


def _lockstep_pair(program, config, input_writes):
    pair = []
    for counter in ([0, 0], [0, 0]):
        card = _counting(TestCard(config), counter)
        _load(card, program, input_writes)
        _prime_icache(card, program)
        pair.append((card, counter))
    return pair


def _run_to_stop(card, timeout, stop, seed_core):
    if seed_core:
        with reference_core():
            return card.run(timeout_cycles=timeout, stop_cycle=stop)
    return card.run(timeout_cycles=timeout, stop_cycle=stop)


def _assert_same(fast, ref):
    assert fast.cpu.snapshot() == ref.cpu.snapshot()
    assert fast.cpu.memory._words == ref.cpu.memory._words
    assert fast.cpu.trap_event == ref.cpu.trap_event
    assert fast.cpu.halted == ref.cpu.halted


def _stops(seed):
    """Stop cycles, alternating strides longer than a block's worst case
    with strides inside it. Runs to an even-indexed stop are long: the
    first gives straight-line code its one chance to run as a block, and
    a perturbation at an even index meets blocks."""
    rng = random.Random(seed)
    stop = 0
    for index in itertools.count():
        stop += rng.randint(40, 300) if index % 2 == 0 else rng.randint(1, 12)
        yield stop


def _lockstep(program, config, input_writes, perturb, timeout, seed):
    """Run the program on a shipped and a seed card over a sequence of
    stops, perturbing both alike at each stop. Returns the last event
    and the ``[blocks run, traps raised in blocks]`` count of each."""
    (fast, fast_blocks), (ref, ref_blocks) = _lockstep_pair(
        program, config, input_writes
    )
    for index, stop in enumerate(_stops(seed)):
        if perturb is not None:
            perturb(fast, index)
            perturb(ref, index)
        event = _run_to_stop(fast, timeout, stop, seed_core=False)
        assert event == _run_to_stop(ref, timeout, stop, seed_core=True)
        _assert_same(fast, ref)
        if event.kind is not DebugEventKind.BREAKPOINT:
            return event, fast_blocks, ref_blocks
    raise AssertionError("unreachable")  # pragma: no cover


class TestBlockLockstep:
    @pytest.mark.parametrize(
        "source, config, perturb, timeout, end, trap_in_block",
        [case[1:] for case in BLOCK_CASES],
        ids=[case[0] for case in BLOCK_CASES],
    )
    def test_blocks_equal_seed_core_on_block_cases(
        self, source, config, perturb, timeout, end, trap_in_block
    ):
        """``TestCard.run`` with blocks leaves exactly the events and
        state the seed core leaves, stop by stop, where a block traps,
        declines or meets its budget."""
        program = assemble(source)
        _warm(program, config, {}, timeout)
        event, shipped, seed = _lockstep(
            program, config, {}, perturb, timeout, seed=source
        )
        assert (event.kind if event.trap is None else event.trap.trap) is end
        assert shipped[0] >= 1 and shipped[1] == int(trap_in_block)
        assert seed == [0, 0]

    @pytest.mark.parametrize(
        "source, config, perturb",
        [case[1:4] for case in LOCKSTEP_CASES],
        ids=[case[0] for case in LOCKSTEP_CASES],
    )
    def test_blocks_equal_seed_core_on_lockstep_cases(
        self, source, config, perturb
    ):
        program = assemble(source)
        _warm(program, config, {}, 20_000)
        _, shipped, seed = _lockstep(
            program, config, {}, _on_cpu(perturb), 20_000, seed=source
        )
        assert shipped[0] >= 1
        assert seed == [0, 0]

    @pytest.mark.parametrize("name", _LIBRARY)
    def test_blocks_equal_seed_core_on_library_workloads(self, name):
        definition = get_workload(name)
        config = CpuConfig()
        _warm(definition.program, config, definition.input_writes, 200_000)
        _, shipped, seed = _lockstep(
            definition.program, config, definition.input_writes, None,
            200_000, seed=name,
        )
        assert shipped[0] >= 1
        assert seed == [0, 0]

    @pytest.mark.parametrize("name", _LIBRARY)
    def test_each_block_leaves_the_state_stepping_leaves(self, name):
        """Right after one block — where a run never stops, so the final
        ``last_exec``, IR and counters are only seen here — the state
        equals stepping its instructions on the seed core, from a stop
        at its leader with a stale memory-access record."""
        definition = get_workload(name)
        program, config = definition.program, CpuConfig()
        table = _warm(program, config, definition.input_writes, 200_000)
        checked = 0
        for leader in sorted(table.compiled):
            (fast, _), (ref, _) = _lockstep_pair(
                program, config, definition.input_writes
            )
            for card in (fast, ref):
                card.set_breakpoints([leader])
                event = card.run(timeout_cycles=200_000)
                _stale_last_exec_at(leader)(card.cpu)
            if event.kind is not DebugEventKind.BREAKPOINT:
                continue  # never reached from the entry
            _assert_same(fast, ref)
            event = fast.cpu.run_block(table, 1 << 40)
            if event is NO_BLOCK:
                continue  # a line the block fetches was evicted
            for _ in table.extent(leader):
                ref_event = reference_step(ref.cpu)
                if ref_event is not None:
                    break
            assert event == ref_event
            _assert_same(fast, ref)
            checked += 1
        assert checked >= 1

    def test_two_cards_sharing_one_table_interleaved(self):
        """Blocks compiled while warming on another card bind none of its
        state: two shipped cards with different data share one table and
        run interleaved, each equal to its own seed twin."""
        definition = get_workload("bubblesort")
        program, config = definition.program, CpuConfig()
        table = _warm(program, config, definition.input_writes, 200_000)
        legs = []
        for data_seed in (3, 4):
            writes = get_workload(
                "bubblesort", {"seed": data_seed}
            ).input_writes
            assert writes.keys() == definition.input_writes.keys()
            legs.append(
                (_lockstep_pair(program, config, writes), _stops(data_seed))
            )
        assert block_table(program, config) is table
        running = list(legs)
        while running:
            for leg in list(running):
                ((fast, _), (ref, _)), stops = leg
                stop = next(stops)
                event = _run_to_stop(fast, 200_000, stop, seed_core=False)
                assert event == _run_to_stop(ref, 200_000, stop, seed_core=True)
                _assert_same(fast, ref)
                if event.kind is not DebugEventKind.BREAKPOINT:
                    running.remove(leg)
        for ((_, fast_blocks), (_, ref_blocks)), _ in legs:
            assert fast_blocks[0] >= 1
            assert ref_blocks == [0, 0]
