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

from dataclasses import dataclass, field
from typing import Iterator

from .dyadic import ZERO, Dyadic, truncate
from .tm import MachineSpec, enumerate_input, run_bounded

__all__ = [
    "OmegaApproximation",
    "omega_approx",
    "omega_stage_values",
    "witness_w",
    "witness_wprime",
    "wprime_halts",
]


@dataclass(frozen=True)
class OmegaApproximation:
    machine: str
    stage: int
    value: Dyadic
    halting_inputs: tuple[str, ...]
    stage_values: tuple[Dyadic, ...] = field(repr=False)  # stages 1..stage

    def report(self) -> dict:
        """JSON-ready summary used by the command-line front end."""
        return {
            "machine": self.machine,
            "stage": self.stage,
            "omega_s": self.value.as_ratio_string(),
            "halting_inputs": list(self.halting_inputs),
        }


def _stages(spec: MachineSpec, s_max: int) -> Iterator[tuple[Dyadic, list[int]]]:
    """Stages 1..s_max in order, each as (value, indices of the inputs it
    adds to the sum), from one run of every input.

    Input x_i runs for s_max steps just before stage i is yielded.  If it
    halts in h_i steps it is first counted at stage max(i, h_i) >= i, so
    stage s is final once x_1..x_s have run, and a caller that stops
    early runs no input beyond its last stage.
    """
    joins: dict[int, list[int]] = {}
    total = ZERO
    for i in range(1, s_max + 1):
        result = run_bounded(spec, enumerate_input(i), s_max)
        if result.halted:
            joins.setdefault(max(i, result.steps_used), []).append(i)
        joined = joins.pop(i, [])
        for j in joined:
            total += Dyadic(1, j.bit_length() - 1)  # |x_j| = bit_length(j) - 1
        yield total, joined


def omega_approx(spec: MachineSpec, stage: int) -> OmegaApproximation:
    """Stage-s lower approximation: run inputs x_1..x_s for s steps each.

    Exact dyadic arithmetic throughout.  The stage values 1..s come from
    the same pass and are kept in ``stage_values``.
    """
    if stage < 0:
        raise ValueError(f"stage must be >= 0, got {stage}")
    values: list[Dyadic] = []
    halted: list[int] = []
    for value, joined in _stages(spec, stage):
        values.append(value)
        halted += joined
    inputs = tuple(enumerate_input(i) for i in sorted(halted))
    return OmegaApproximation(
        spec.name, stage, values[-1] if values else ZERO, inputs, tuple(values)
    )


def omega_stage_values(spec: MachineSpec, s_max: int) -> list[Dyadic]:
    """The stage values [stage 1, ..., stage s_max], in one pass."""
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    return [value for value, _ in _stages(spec, s_max)]


def witness_w(spec: MachineSpec, phi: Dyadic, max_stage: int) -> int | None:
    """Least stage s <= max_stage with phi strictly below the stage value.

    Returns None when the budget runs out, which for phi at or above the
    machine's exact halting probability is the only possible outcome.
    Stages are computed only up to the one returned.
    """
    if not (0 <= phi < 1):
        raise ValueError(f"witness_w requires phi in [0, 1), got {phi}")
    if max_stage < 0:
        raise ValueError(f"max_stage must be >= 0, got {max_stage}")
    for s, (value, _) in enumerate(_stages(spec, max_stage), start=1):
        if phi < value:
            return s
    return None


def wprime_halts(phi: Dyadic, stage_value: Dyadic, m: int) -> bool:
    """The halting predicate of the finite-precision witness at precision
    m, given the stage-m value: 0 < (phi truncated to m bits) < (stage
    value truncated to m bits).

    An all-zero truncation loops unconditionally: the m-bit word 0^m
    stands for 1 so that wraparound estimates of phases just below 1
    cannot fake a halt.
    """
    phi_m = truncate(phi, m)
    return phi_m != 0 and phi_m < truncate(stage_value, m)


def witness_wprime(spec: MachineSpec, phibar: str, m: int) -> bool:
    """Decide the halting branch of the finite-precision witness on the
    binary word phibar, read as 0.phibar, at precision m (see
    ``wprime_halts``).

    The looping branch is decided analytically rather than actually
    looping; downstream consumers only need the predicate.
    """
    if not set(phibar) <= {"0", "1"}:  # int(w, 2) also takes "1_0", " 10" and "+10"
        raise ValueError(f"phibar must be a word over 0 and 1, got {phibar!r}")
    if not 1 <= m <= len(phibar):
        raise ValueError(f"need 1 <= m <= n = {len(phibar)}, got m = {m}")
    phi = Dyadic(int(phibar, 2), len(phibar))
    return wprime_halts(phi, omega_stage_values(spec, m)[-1], m)
