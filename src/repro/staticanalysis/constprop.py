"""Sparse conditional constant propagation over the Thor CFG.

Wegman–Zadeck style conditional constant propagation on the
instruction-level CFG: dataflow facts (register constants and the PSR
flag nibble) and control-flow reachability are solved *together*, so a
branch whose flags are provably constant contributes only its taken (or
only its fall-through) edge, and code beyond it can be proven
unreachable even though the plain CFG reaches it.

The transfer functions replicate the CPU's own ALU semantics
(:mod:`repro.thor.cpu`) — including add/subtract carry/overflow and the
signed branch predicates — so a "constant" here is the value the real
machine computes, not an approximation. Memory loads, ``POP`` values and
unresolved indirect targets are conservatively unknown (bottom).

Consumers:

* lint rule ``unreachable-location`` — campaign locations that resolve
  only to code proven unreachable by the *conditional* analysis;
* lint rule ``constant-dead-write`` — dead stores (reaching-definitions
  dead) whose written value is additionally a compile-time constant;
* the equivalence engine, which uses the refined executable set when
  certifying that a def-use region contains no observation points.

Alongside the constant lattice the result records a modest value-range
summary per register (min/max over every constant observation, bottom
once any unknown write is seen); branch folding only ever uses exact
constants, the ranges are reporting/diagnostic aids.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.thor import isa
from repro.thor.isa import Instruction, Opcode
from repro.util.bits import to_signed, to_unsigned
from repro.staticanalysis.cfg import ControlFlowGraph
from repro.staticanalysis.defuse import FLAGS, InstructionDefUse


class _Bottom:
    """Sentinel: value provably not a single compile-time constant."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NAC"


#: Not-a-constant lattice bottom. Missing env keys are lattice top
#: (undefined: no execution reaching this point has written the item).
NAC = _Bottom()

# Lattice values are ints (constants) or NAC; envs map dataflow items
# (register indices, FLAGS) to lattice values.
_Env = Dict[int, object]


def _flags_nibble(z: bool, n: bool, c: bool, v: bool) -> int:
    return int(z) | (int(n) << 1) | (int(c) << 2) | (int(v) << 3)


def _set_nz(result: int) -> Tuple[bool, bool]:
    return result == 0, bool(result >> 31)


def _add_sub(a: int, b: int, subtract: bool) -> Tuple[int, bool, bool]:
    # The CPU's add/subtract/compare handlers, exactly; both are pinned
    # to Python arithmetic by tests/properties/test_prop_isa.py.
    if subtract:
        wide = a + to_unsigned(~b) + 1
        signed = to_signed(a) - to_signed(b)
    else:
        wide = a + b
        signed = to_signed(a) + to_signed(b)
    result = to_unsigned(wide)
    carry = wide > isa.WORD_MASK
    overflow = not (-(1 << 31) <= signed <= (1 << 31) - 1)
    return result, carry, overflow


def _branch_taken(op: Opcode, nibble: int) -> bool:
    z = bool(nibble & 1)
    n = bool(nibble & 2)
    v = bool(nibble & 8)
    if op is Opcode.BEQ:
        return z
    if op is Opcode.BNE:
        return not z
    if op is Opcode.BLT:
        return n != v
    if op is Opcode.BGE:
        return n == v
    if op is Opcode.BGT:
        return (not z) and n == v
    if op is Opcode.BLE:
        return z or n != v
    raise AssertionError(op)  # pragma: no cover


def _arith_flags(result: int, carry: bool, overflow: bool) -> int:
    z, n = _set_nz(result)
    return _flags_nibble(z, n, carry, overflow)


def _nz_flags(env: _Env, result: int) -> int:
    # Z/N-only writes preserve C and V; if the incoming nibble is unknown
    # the whole nibble stays unknown (C/V bits cannot be recovered).
    prior = env.get(FLAGS)
    if not isinstance(prior, int):
        return -1
    z, n = _set_nz(result)
    return _flags_nibble(z, n, bool(prior & 4), bool(prior & 8))


class ConstPropResult:
    """Solved conditional-constant facts for one program."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        env_in: Dict[int, _Env],
        executable: FrozenSet[int],
        folded_branches: Dict[int, bool],
        ranges: Dict[int, Tuple[int, int]],
    ):
        self.cfg = cfg
        self.env_in = env_in
        #: Addresses executable under conditional reachability — always a
        #: subset of ``cfg.reachable``.
        self.executable = executable
        #: Conditional branches with a provably constant direction
        #: (address -> taken?).
        self.folded_branches = folded_branches
        #: Register -> (min, max) over all constant observations; absent
        #: when the register is never written or ever written unknown.
        self.ranges = ranges

    def constant_at(self, address: int, item: int) -> Optional[int]:
        """The constant value of ``item`` entering ``address``, if any."""
        value = self.env_in.get(address, {}).get(item)
        return value if isinstance(value, int) else None

    def refined_unreachable(self) -> List[int]:
        """Reachable-by-CFG addresses proven dead by branch folding."""
        return sorted(set(self.cfg.reachable) - set(self.executable))

    def constant_dead_writes(
        self, dead_definitions: List[Tuple[int, int]]
    ) -> List[Tuple[int, int, int]]:
        """Dead stores whose written value is a compile-time constant.

        ``dead_definitions`` comes from
        :meth:`repro.staticanalysis.defuse.ReachingDefinitions.
        dead_definitions`. Returns ``(address, item, constant value)``
        rows for the subset whose defining instruction writes a value
        the propagator proved constant, restricted to executable code.
        """
        rows: List[Tuple[int, int, int]] = []
        for address, item in dead_definitions:
            if address not in self.executable:
                continue
            fact = self.cfg.defuse.get(address)
            if fact is None or item not in fact.defs:
                continue
            env = self.env_in.get(address, {})
            value = _written_constant(fact.instr, item, env)
            if value is not None:
                rows.append((address, item, value))
        return rows


def _written_constant(
    instr: Instruction, item: int, env: _Env
) -> Optional[int]:
    """The constant ``instr`` writes into register ``item``, if known."""
    out, _flags, _succ_hint = _evaluate(instr, env)
    value = out.get(item)
    return value if isinstance(value, int) else None


def _evaluate(
    instr: Instruction, env: _Env
) -> Tuple[Dict[int, object], Optional[int], Optional[bool]]:
    """(register writes, new flag nibble or None, folded branch or None).

    A flag nibble of ``-1`` means "written but unknown"; ``None`` means
    the instruction does not touch the flags.
    """
    op = instr.opcode
    writes: Dict[int, object] = {}
    flags: Optional[int] = None
    folded: Optional[bool] = None

    def known(index: int) -> Optional[int]:
        value = env.get(index)
        return value if isinstance(value, int) else None

    if op is Opcode.LDI:
        writes[instr.rd] = to_unsigned(instr.imm)
    elif op is Opcode.LUI:
        writes[instr.rd] = to_unsigned(instr.imm << 14)
    elif op in (Opcode.MOV, Opcode.NOT):
        a = known(instr.rs1)
        if a is None:
            writes[instr.rd] = NAC
            flags = -1
        else:
            result = a if op is Opcode.MOV else to_unsigned(~a)
            writes[instr.rd] = result
            flags = _nz_flags(env, result)
    elif op in (Opcode.ADD, Opcode.SUB, Opcode.ADDI, Opcode.SUBI,
                Opcode.CMP, Opcode.CMPI):
        a = known(instr.rs1)
        if op in (Opcode.ADD, Opcode.SUB, Opcode.CMP):
            b = known(instr.rs2)
        else:
            b = to_unsigned(instr.imm)
        if a is None or b is None:
            flags = -1
            if op not in (Opcode.CMP, Opcode.CMPI):
                writes[instr.rd] = NAC
        else:
            subtract = op in (Opcode.SUB, Opcode.SUBI, Opcode.CMP,
                              Opcode.CMPI)
            result, carry, overflow = _add_sub(a, b, subtract)
            flags = _arith_flags(result, carry, overflow)
            if op not in (Opcode.CMP, Opcode.CMPI):
                writes[instr.rd] = result
    elif op in (Opcode.MUL, Opcode.MULI):
        a = known(instr.rs1)
        b = known(instr.rs2) if op is Opcode.MUL else instr.imm
        if a is None or b is None:
            writes[instr.rd] = NAC
            flags = -1
        else:
            sb = to_signed(b) if op is Opcode.MUL else b
            result = to_unsigned(to_signed(a) * sb)
            writes[instr.rd] = result
            flags = _nz_flags(env, result)
    elif op in (Opcode.DIV, Opcode.MOD):
        a = known(instr.rs1)
        b = known(instr.rs2)
        if a is None or b is None or to_signed(b) == 0:
            # Division by a constant zero traps at runtime; the write
            # never happens, so NAC is a sound (vacuous) summary.
            writes[instr.rd] = NAC
            flags = -1
        else:
            sa, sb = to_signed(a), to_signed(b)
            quotient = int(sa / sb)
            result = quotient if op is Opcode.DIV else sa - quotient * sb
            writes[instr.rd] = to_unsigned(result)
            flags = _nz_flags(env, to_unsigned(result))
    elif op in (Opcode.AND, Opcode.OR, Opcode.XOR,
                Opcode.ANDI, Opcode.ORI, Opcode.XORI):
        a = known(instr.rs1)
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            b = known(instr.rs2)
        else:
            b = to_unsigned(instr.imm)
        if a is None or b is None:
            writes[instr.rd] = NAC
            flags = -1
        else:
            if op in (Opcode.AND, Opcode.ANDI):
                result = a & b
            elif op in (Opcode.OR, Opcode.ORI):
                result = a | b
            else:
                result = a ^ b
            writes[instr.rd] = result
            flags = _nz_flags(env, result)
    elif op in (Opcode.SHL, Opcode.SHR, Opcode.SRA,
                Opcode.SHLI, Opcode.SHRI):
        a = known(instr.rs1)
        if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
            b = known(instr.rs2)
            amount = None if b is None else b & 31
        else:
            amount = instr.imm & 31
        if a is None or amount is None:
            writes[instr.rd] = NAC
            flags = -1
        else:
            if op in (Opcode.SHL, Opcode.SHLI):
                result = to_unsigned(a << amount)
            elif op in (Opcode.SHR, Opcode.SHRI):
                result = a >> amount
            else:
                result = to_unsigned(to_signed(a) >> amount)
            writes[instr.rd] = result
            flags = _nz_flags(env, result)
    elif op in (Opcode.LD, Opcode.POP):
        # Memory contents are not modeled.
        writes[instr.rd] = NAC
        if op is Opcode.POP:
            sp = known(isa.REG_SP)
            writes[isa.REG_SP] = (
                to_unsigned(sp + 1) if sp is not None else NAC
            )
    elif op is Opcode.PUSH:
        sp = known(isa.REG_SP)
        writes[isa.REG_SP] = to_unsigned(sp - 1) if sp is not None else NAC
    elif op in isa.BRANCHES:
        nibble = env.get(FLAGS)
        if isinstance(nibble, int):
            folded = _branch_taken(op, nibble)
    elif op is Opcode.CALL:
        writes[isa.REG_LR] = NAC  # refined by the caller (needs the PC)
    # NOP, HALT, SYNC, ST, JMP, JR, RET, TRAP: no register constants.
    return writes, flags, folded


def _meet_into(dst: _Env, src: _Env) -> bool:
    """Meet ``src`` into ``dst``; True when ``dst`` changed."""
    changed = False
    for item, value in src.items():
        if item not in dst:
            dst[item] = value
            changed = True
        elif dst[item] is not NAC and dst[item] != value:
            dst[item] = NAC
            changed = True
    return changed


def propagate_constants(cfg: ControlFlowGraph) -> ConstPropResult:
    """Solve conditional constant propagation for ``cfg``."""
    defuse = cfg.defuse
    entry = cfg.entry
    env_in: Dict[int, _Env] = {}
    exec_edges: Set[Tuple[Optional[int], int]] = set()
    executable: Set[int] = set()
    folded_branches: Dict[int, bool] = {}
    worklist: Deque[Tuple[Optional[int], int, _Env]] = deque()

    if entry in defuse:
        worklist.append((None, entry, {}))

    guard = 0
    limit = max(1, len(defuse)) * 4096  # fixpoint safety valve
    while worklist:
        guard += 1
        if guard > limit:  # pragma: no cover - defensive only
            break
        src, address, incoming = worklist.popleft()
        edge = (src, address)
        first_visit = address not in env_in
        if first_visit:
            env_in[address] = dict(incoming)
            changed = True
        else:
            changed = _meet_into(env_in[address], incoming)
        if edge in exec_edges and not changed:
            continue
        exec_edges.add(edge)
        executable.add(address)

        fact = defuse[address]
        env = env_in[address]
        writes, flags, folded = _evaluate(fact.instr, env)
        if fact.instr.opcode is Opcode.CALL:
            writes[isa.REG_LR] = to_unsigned(address + 1)
        env_out: _Env = dict(env)
        env_out.update(writes)
        if flags is not None:
            env_out[FLAGS] = NAC if flags < 0 else flags

        successors = _executable_successors(cfg, fact, env, folded)
        if folded is not None and fact.flow == isa.FLOW_BRANCH:
            folded_branches[address] = folded
        else:
            folded_branches.pop(address, None)
        for succ in successors:
            if succ in defuse:
                worklist.append((address, succ, env_out))

    # A branch only counts as folded if it stayed foldable at fixpoint
    # *and* the analysis never saw a conflicting direction; recompute
    # from the final envs to be safe.
    final_folds: Dict[int, bool] = {}
    for address in executable:
        fact = defuse[address]
        if fact.flow != isa.FLOW_BRANCH:
            continue
        nibble = env_in[address].get(FLAGS)
        if isinstance(nibble, int):
            final_folds[address] = _branch_taken(fact.instr.opcode, nibble)

    ranges = _register_ranges(env_in, executable)
    return ConstPropResult(
        cfg=cfg,
        env_in=env_in,
        executable=frozenset(executable),
        folded_branches=final_folds,
        ranges=ranges,
    )


def _executable_successors(
    cfg: ControlFlowGraph,
    fact: InstructionDefUse,
    env: _Env,
    folded: Optional[bool],
) -> Tuple[int, ...]:
    address = fact.address
    instr = fact.instr
    all_succ = cfg.successors.get(address, ())
    if fact.flow == isa.FLOW_BRANCH and folded is not None:
        target = address + 1 + instr.imm if folded else address + 1
        return tuple(s for s in all_succ if s == target)
    if fact.flow == isa.FLOW_INDIRECT:
        target = env.get(instr.rs1)
        if isinstance(target, int):
            return tuple(s for s in all_succ if s == target)
    if fact.flow == isa.FLOW_RETURN:
        target = env.get(isa.REG_LR)
        if isinstance(target, int):
            return tuple(s for s in all_succ if s == target)
    return all_succ


def _register_ranges(
    env_in: Dict[int, _Env], executable: Set[int]
) -> Dict[int, Tuple[int, int]]:
    ranges: Dict[int, Tuple[int, int]] = {}
    poisoned: Set[int] = set()
    for address in executable:
        for item, value in env_in[address].items():
            if item == FLAGS:
                continue
            if not isinstance(value, int):
                poisoned.add(item)
                continue
            lo, hi = ranges.get(item, (value, value))
            ranges[item] = (min(lo, value), max(hi, value))
    for item in poisoned:
        ranges.pop(item, None)
    return ranges
