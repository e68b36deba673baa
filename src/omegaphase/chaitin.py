"""Staged lower approximation of the halting probability and the two
halting-witness procedures whose behaviour flips exactly at it.

Stage s simulates the first s inputs for s steps each and adds 2^-|x|
for every input seen halting, so the sequence is computable, exact, and
non-decreasing; it reaches the true value of a toy machine once every
halting input fits inside the budget (the zoo documents those budgets).
Budgets are explicit: these procedures semi-decide "phi below the
halting probability", they never decide it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .dyadic import ZERO, BitString, Dyadic, truncate
from .tm import MachineSpec, enumerate_input, run_bounded

__all__ = [
    "OmegaApproximation",
    "omega_approx",
    "omega_stage_values",
    "omega_truncated_sequence",
    "witness_w",
    "witness_wprime",
]


@dataclass(frozen=True)
class OmegaApproximation:
    machine: str
    stage: int
    value: Dyadic
    halting_inputs: tuple[str, ...]

    def report(self) -> dict:
        """JSON-ready summary used by the command-line front end."""
        return {
            "machine": self.machine,
            "stage": self.stage,
            "omega_s": self.value.as_ratio_string(),
            "halting_inputs": list(self.halting_inputs),
        }


class _HaltingTable:
    """Halting times of the inputs x_1, x_2, ... of one machine, and the
    stage values they determine, grown on demand.

    Inputs x_1..x_s, s = len(values) - 1, have each been run for
    ``budget`` >= s steps.  An input x_i halting in h_i steps is first
    counted at stage max(i, h_i); ``joins`` maps a stage to those inputs,
    ``pending`` lists the inputs not halted within the budget, and
    ``values[t]`` is the stage-t value.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.budget = 0
        self.joins: dict[int, list[int]] = {}
        self.pending: list[int] = []
        self.values = [ZERO]

    def _halts(self, i: int) -> bool:
        result = run_bounded(self.spec, enumerate_input(i), self.budget)
        if result.halted:
            self.joins.setdefault(max(i, result.steps_used), []).append(i)
        return result.halted

    def value(self, stage: int) -> Dyadic:
        """The stage value, extending the table through every stage up to it."""
        first = len(self.values)
        if stage >= first:
            if stage > self.budget:
                # pending inputs are rerun from scratch at the new budget:
                # doubling keeps the reruns under twice the inputs run, and
                # the 64-step floor skips the regrowths of the first stages
                self.budget = max(stage, 2 * self.budget, 64)
                self.pending = [i for i in self.pending if not self._halts(i)]
            self.pending += [i for i in range(first, stage + 1) if not self._halts(i)]
            for s in range(first, stage + 1):
                total = self.values[-1]
                for i in self.joins.get(s, ()):
                    total += Dyadic(1, i.bit_length() - 1)  # |x_i| = bit_length(i) - 1
                self.values.append(total)
        return self.values[stage]

    def halting_inputs(self, stage: int) -> tuple[str, ...]:
        """Inputs counted at a stage already reached, in index order."""
        found = sorted(i for t, idx in self.joins.items() if t <= stage for i in idx)
        return tuple(str(enumerate_input(i)) for i in found)


@cache
def _table(spec: MachineSpec) -> _HaltingTable:
    """The machine's one table for the life of the process (equal specs share it)."""
    return _HaltingTable(spec)


def omega_approx(spec: MachineSpec, stage: int) -> OmegaApproximation:
    """Stage-s lower approximation: run inputs x_1..x_s for s steps each.

    Exact dyadic arithmetic throughout.  Every stage reads the machine's
    one halting-time table, which records each input's halting time once
    and is extended only when a later stage is first asked for.
    """
    if stage < 0:
        raise ValueError(f"stage must be >= 0, got {stage}")
    table = _table(spec)
    value = table.value(stage)
    return OmegaApproximation(spec.name, stage, value, table.halting_inputs(stage))


def omega_stage_values(spec: MachineSpec, s_max: int) -> list[Dyadic]:
    """The stage values [stage 1, ..., stage s_max], in one pass."""
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    table = _table(spec)
    table.value(s_max)
    return table.values[1 : s_max + 1]


def omega_truncated_sequence(spec: MachineSpec, s_max: int) -> list[Dyadic]:
    """The diagonal sequence [stage-1 value to 1 bit, ..., stage-s to s bits].

    For toy machines the tail equals the exact value truncated, once the
    halting set is exhausted within the stage budget.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    values = omega_stage_values(spec, s_max)
    return [truncate(v, s) for s, v in enumerate(values, start=1)]


def witness_w(spec: MachineSpec, phi: Dyadic, max_stage: int) -> int | None:
    """Least stage s <= max_stage with phi strictly below the stage value.

    Returns None when the budget runs out, which for phi at or above the
    machine's exact halting probability is the only possible outcome.
    """
    if not (0 <= phi < 1):
        raise ValueError(f"witness_w requires phi in [0, 1), got {phi}")
    if max_stage < 0:
        raise ValueError(f"max_stage must be >= 0, got {max_stage}")
    table = _table(spec)
    for s in range(1, max_stage + 1):
        if phi < table.value(s):
            return s
    return None


def witness_wprime(spec: MachineSpec, phibar: BitString, m: int) -> bool:
    """Decide the halting branch of the finite-precision witness.

    Halts (True) iff 0 < (0.phibar truncated to m bits) < (stage-m value
    truncated to m bits).  An all-zero truncation loops unconditionally:
    the m-bit word 0^m stands for 1 so that wraparound estimates of
    phases just below 1 cannot fake a halt.  The looping branch is
    decided analytically rather than actually looping; downstream
    consumers only need the predicate.
    """
    if not 1 <= m <= len(phibar):
        raise ValueError(f"need 1 <= m <= n = {len(phibar)}, got m = {m}")
    phi_m = truncate(phibar.to_dyadic(), m)
    if phi_m == 0:
        return False
    omega_m = truncate(_table(spec).value(m), m)
    return phi_m < omega_m
