"""The restore check covers every state element.

A warm restore recomputes the checkpoint fingerprint over the live
target and compares it with the tick's. Each test here restores a tick,
perturbs one state element and asserts that the fingerprint no longer
matches, so a field the CPU snapshot or the fingerprint drops fails by
name: every internal and boundary scan cell, the state no chain shows
(the forced-IR flag, the last-executed-instruction record, the caches'
counters), the bus force state, the memory pages, the protection range,
the environment simulator and ``halted``.
"""

import pickle

import pytest

from repro.core import create_target
from repro.core.campaign import EnvironmentSpec
from repro.thor.cpu import Cpu
from repro.thor.isa import Opcode
from repro.thor.memory import PAGE_WORDS
from repro.thor.scanchain import build_scan_chains
from repro.thor.traps import Trap, TrapEvent
from tests.conftest import make_campaign

CELLS = [
    (name, cell.path)
    for name, chain in build_scan_chains(Cpu()).items()
    for cell in chain.cells()
]


def _set_trap(cpu):
    cpu.trap_event = TrapEvent(trap=Trap.WATCHDOG, pc=cpu.pc, cycle=cpu.cycles)


#: How to change the state behind each read-only cell by one bit.
READ_ONLY = {
    "cpu.cycle_counter": lambda cpu: setattr(cpu, "cycles", cpu.cycles ^ 1),
    "cpu.instret_counter": lambda cpu: setattr(cpu, "instret", cpu.instret ^ 1),
    "cpu.trap_status": _set_trap,
    "pins.halt": lambda cpu: setattr(cpu, "halted", not cpu.halted),
    "pins.sync_count": lambda cpu: setattr(cpu, "iterations", cpu.iterations ^ 1),
}


def _toggle(obj, name, other):
    value = getattr(obj, name)
    setattr(obj, name, other if value != other else None)


#: One change per field of ``cpu.last_exec``.
LAST_EXEC = {
    "pc": lambda last: setattr(last, "pc", last.pc ^ 1),
    "opcode": lambda last: _toggle(last, "opcode", Opcode.NOP),
    "branch_taken": lambda last: setattr(last, "branch_taken", not last.branch_taken),
    "mem_address": lambda last: _toggle(last, "mem_address", 7),
    "mem_value": lambda last: _toggle(last, "mem_value", 7),
    "mem_is_write": lambda last: setattr(last, "mem_is_write", not last.mem_is_write),
}


@pytest.fixture(scope="module")
def prepared():
    """A warm control-loop campaign: environment simulator, protected
    code, and a middle tick of its reference run."""
    target = create_target("thor-rd")
    campaign = make_campaign(
        workload_name="pid-control",
        environment=EnvironmentSpec(
            name="inverted-pendulum", params={"initial": 0.2}
        ),
        max_iterations=20,
        protect_code=True,
        n_experiments=1,
        warm_start=True,
        checkpoint_interval=256,
    )
    target.prepare_run(campaign)
    store = target._checkpoints
    assert store is not None and len(store) >= 3
    return target, store, len(store) // 2


def fingerprint_after(prepared, perturb):
    """Restore the tick (its check passes), apply ``perturb`` to the
    target and return the live fingerprint and the tick's."""
    target, store, index = prepared
    image = store.restore_image(index)
    target.restore_checkpoint(image)
    perturb(target)
    blob = pickle.dumps(target._environment, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        target._checkpoint_fingerprint(sorted(image.pages), blob),
        image.fingerprint,
    )


def test_unperturbed_restore_matches(prepared):
    live, tick = fingerprint_after(prepared, lambda target: None)
    assert live == tick


@pytest.mark.parametrize("chain,path", CELLS)
def test_scan_cell(prepared, chain, path):
    def perturb(target):
        cpu = target.card.cpu
        cell = target.card.chain(chain).cell(path)
        if cell.read_only:
            READ_ONLY[path](cpu)
        else:
            # Writing the IR cell forces the latch; keep the flag so
            # only the cell's own value changes.
            forced = cpu.pipeline.ir_forced
            cell.writer(cell.reader() ^ 1)
            cpu.pipeline.ir_forced = forced

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


@pytest.mark.parametrize("field", sorted(LAST_EXEC))
def test_last_exec_field(prepared, field):
    live, tick = fingerprint_after(
        prepared, lambda target: LAST_EXEC[field](target.card.cpu.last_exec)
    )
    assert live != tick


@pytest.mark.parametrize("cache", ["icache", "dcache"])
@pytest.mark.parametrize("counter", ["hits", "misses", "parity_errors"])
def test_cache_counter(prepared, cache, counter):
    def perturb(target):
        stats = getattr(target.card.cpu, cache).stats
        setattr(stats, counter, getattr(stats, counter) + 1)

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


@pytest.mark.parametrize("field", ["force_mask", "force_value", "force_reads"])
def test_bus_force_state(prepared, field):
    def perturb(target):
        bus = target.card.cpu.bus
        setattr(bus, field, getattr(bus, field) ^ 1)

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


def test_ir_forced(prepared):
    def perturb(target):
        pipeline = target.card.cpu.pipeline
        pipeline.ir_forced = not pipeline.ir_forced

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


def test_halted(prepared):
    def perturb(target):
        target.card.cpu.halted = True

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


def test_one_word_of_each_restored_page(prepared):
    target, store, index = prepared
    pages = sorted(store.restore_image(index).pages)
    assert pages
    for page in pages:
        address = page * PAGE_WORDS + 5

        def perturb(target, address=address):
            memory = target.card.cpu.memory
            memory.poke(address, memory.peek(address) ^ 1)

        live, tick = fingerprint_after(prepared, perturb)
        assert live != tick, f"page {page}"


def test_protection_range(prepared):
    def perturb(target):
        memory = target.card.cpu.memory
        lo, hi = memory.protected_range()
        assert lo <= hi
        memory.protect(lo, hi + 1)

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick


def test_environment(prepared):
    def perturb(target):
        target._environment.iterations += 1

    live, tick = fingerprint_after(prepared, perturb)
    assert live != tick
