"""Bundled toy machines with hand-verified halting sets and exact omegas.

Each entry documents the full halting set, the exact halting probability,
and the settle budget: the smallest stage s at which the staged lower
approximation equals the exact value (every halting input x needs both
its enumeration index and its halting time to fit within s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .tm import MachineSpec, parse_machine

__all__ = ["ZooEntry", "ZOO", "zoo_machine", "zoo_machine_text"]


@dataclass(frozen=True)
class ZooEntry:
    name: str
    halting_set: tuple[str, ...]
    omega: Fraction
    settle_budget: int
    prefix_free: bool
    note: str


ZOO: dict[str, ZooEntry] = {
    e.name: e
    for e in [
        ZooEntry(
            "halt_on_zero",
            ("0",),
            Fraction(1, 2),
            settle_budget=2,
            prefix_free=True,
            note='halts on "0" in 2 steps',
        ),
        ZooEntry(
            "omega34",
            ("0", "11"),
            Fraction(3, 4),
            settle_budget=7,
            prefix_free=True,
            note='halts on "0" (2 steps) and "11" (3 steps; index 7)',
        ),
        ZooEntry(
            "omega58",
            ("0", "100"),
            Fraction(5, 8),
            settle_budget=12,
            prefix_free=True,
            note='halts on "0" (2 steps) and "100" (4 steps; index 12)',
        ),
        ZooEntry(
            "slow_halter",
            ("1",),
            Fraction(1, 2),
            settle_budget=5,
            prefix_free=True,
            note='halts on "1" only, after 5 steps',
        ),
        ZooEntry(
            "looper",
            (),
            Fraction(0),
            settle_budget=1,
            prefix_free=True,
            note="never halts",
        ),
        ZooEntry(
            "prefix_violator",
            ("", "0"),
            Fraction(3, 2),
            settle_budget=2,
            prefix_free=False,
            note="halting set {'', '0'}: empty word prefixes '0'; its "
            "halting probability exceeds 1, so keep it out of omega runs",
        ),
    ]
}


def zoo_machine_text(name: str) -> str:
    if name not in ZOO:
        raise KeyError(f"unknown zoo machine {name!r}; known: {sorted(ZOO)}")
    return (
        resources.files("omegaphase").joinpath(f"machines/{name}.tm").read_text("utf-8")
    )


def zoo_machine(name: str) -> MachineSpec:
    return parse_machine(zoo_machine_text(name), name=name)
