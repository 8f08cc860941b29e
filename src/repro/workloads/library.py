"""Workload registry and the WorkloadDefinition value object."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.thor.assembler import Program, assemble
from repro.util.errors import ConfigurationError


@dataclass
class WorkloadDefinition:
    """One runnable workload: program image + I/O contract."""

    name: str
    description: str
    program: Program
    # Initial input data, downloaded with writeMemory before the run.
    input_writes: Dict[int, int] = field(default_factory=dict)
    # Output windows read back with readMemory: name -> (base address, words).
    outputs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Golden output values for fault-free execution (name -> words).
    expected: Dict[str, List[int]] = field(default_factory=dict)
    # Loop workloads never HALT; the campaign bounds their iterations.
    is_loop: bool = False
    default_max_iterations: Optional[int] = None
    uses_environment: bool = False

    def output_addresses(self) -> List[int]:
        addresses: List[int] = []
        for base, count in self.outputs.values():
            addresses.extend(range(base, base + count))
        return addresses

    def label(self, name: str) -> int:
        value = self.program.symbols.get(name)
        if value is None:
            raise ConfigurationError(
                f"workload {self.name!r} has no label {name!r}"
            )
        return value


_BUILDERS: Dict[str, Callable[..., WorkloadDefinition]] = {}


def register_workload(name: str):
    """Decorator: register a workload builder under ``name``."""

    def decorator(builder: Callable[..., WorkloadDefinition]):
        if name in _BUILDERS:
            raise ConfigurationError(f"workload {name!r} already registered")
        _BUILDERS[name] = builder
        builder.workload_name = name
        return builder

    return decorator


def available_workloads() -> List[str]:
    return sorted(_BUILDERS)


def get_workload(name: str, params: Optional[dict] = None) -> WorkloadDefinition:
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        )
    return builder(**(params or {}))


def make_input_values(n: int, seed: int, lo: int = 0, hi: int = 9999) -> List[int]:
    """Deterministic pseudo-random workload input data."""
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


def build(source: str, origin: int = 0x100) -> Program:
    return assemble(source, origin=origin)
