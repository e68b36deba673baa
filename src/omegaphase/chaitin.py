"""Staged lower approximation of the halting probability and the two
halting-witness procedures whose behaviour flips exactly at it.

Stage s adds 2^-|x| for every one of the first s inputs that halts
within s steps, so the sequence is computable, exact, and
non-decreasing; it reaches the true value of a toy machine once every
halting input fits inside the budget (the zoo documents those budgets).
Nothing here simulates a machine: every stage is read off the halting
times of one ``tm.walk_inputs`` record, and a stage above that walk's
budget is refused.  The walk refuses a machine whose halting words
within its budget nest, so by Kraft's inequality no stage read off a
record exceeds 1.  Budgets are explicit: these procedures semi-decide
"phi below the halting probability", they never decide it.

Stage values are ``Fraction``s, each a sum of powers 2^-|x|, so their
denominators are powers of two.  The finite-precision witness reads an
m-bit word as an int and compares it with the stage-m value truncated
by ``dyadic.truncate_num``, the integer rounding core that
``phase.sweep`` also decides it with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .dyadic import truncate_num
from .tm import InputWalk, enumerate_input

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
    value: Fraction
    halting_inputs: tuple[str, ...]
    stage_values: tuple[Fraction, ...] = field(repr=False)  # stages 1..stage

    def report(self) -> dict:
        """JSON-ready summary used by the command-line front end."""
        return {
            "machine": self.machine,
            "stage": self.stage,
            "omega_s": str(self.value),
            "halting_inputs": list(self.halting_inputs),
        }


def _stages(walk: InputWalk, s_max: int) -> Iterator[tuple[Fraction, list[int]]]:
    """Stages 1..s_max in order, each as (value, indices of the inputs it
    adds to the sum), read off the walk's halting times.

    Input x_i is looked up just before stage i is yielded.  If it halts
    in h_i steps it is first counted at stage max(i, h_i) >= i, so stage
    s is final once x_1..x_s are looked up.  Raises ValueError, when
    first advanced, for s_max below 0 or above the walk's budget.
    """
    if not 0 <= s_max <= walk.budget:
        raise ValueError(f"stage {s_max} is outside 0..{walk.budget}, the input walk's budget")
    joins: dict[int, list[int]] = {}
    total = Fraction(0)
    for i in range(1, s_max + 1):
        steps = walk.halting_steps(enumerate_input(i))
        if steps is not None:
            joins.setdefault(max(i, steps), []).append(i)
        joined = joins.pop(i, [])
        for j in joined:
            total += Fraction(1, 1 << (j.bit_length() - 1))  # |x_j| = bit_length(j) - 1
        yield total, joined


def omega_approx(walk: InputWalk, stage: int) -> OmegaApproximation:
    """Stage-s lower approximation: the inputs among x_1..x_s that halt
    within s steps, read off ``walk``, for 0 <= s <= its budget.

    Exact rational arithmetic throughout.  The stage values 1..s come from
    the same pass and are kept in ``stage_values``.
    """
    values: list[Fraction] = []
    halted: list[int] = []
    for value, joined in _stages(walk, stage):
        values.append(value)
        halted += joined
    inputs = tuple(enumerate_input(i) for i in sorted(halted))
    return OmegaApproximation(
        walk.name, stage, values[-1] if values else Fraction(0), inputs, tuple(values)
    )


def omega_stage_values(walk: InputWalk, s_max: int) -> list[Fraction]:
    """The stage values [stage 1, ..., stage s_max], in one pass over
    ``walk``, for 0 <= s_max <= its budget."""
    return [value for value, _ in _stages(walk, s_max)]


def witness_w(walk: InputWalk, phi: Fraction, max_stage: int) -> int | None:
    """Least stage s <= max_stage with phi strictly below the stage value,
    read off ``walk``, for 0 <= max_stage <= its budget.

    Returns None when the budget runs out, which for phi at or above the
    machine's exact halting probability is the only possible outcome.
    The machine ran once, in the walk; the stage values are summed only
    up to the one returned.
    """
    if not (0 <= phi < 1):
        raise ValueError(f"witness_w requires phi in [0, 1), got {phi}")
    for s, (value, _) in enumerate(_stages(walk, max_stage), start=1):
        if phi < value:
            return s
    return None


def wprime_halts(word: int, stage_value: Fraction, m: int) -> bool:
    """The halting predicate of the finite-precision witness at precision
    m on the m-bit word ``word`` (an int in [0, 2^m)), given the stage-m
    value: 0 < word < (stage value truncated to m bits), both over 2^m.

    The all-zero word loops unconditionally: 0^m stands for 1 so that
    wraparound estimates of phases just below 1 cannot fake a halt.
    """
    return 0 < word < truncate_num(stage_value.numerator, stage_value.denominator.bit_length() - 1, m)


def witness_wprime(walk: InputWalk, phibar: str, m: int) -> bool:
    """Decide the halting branch of the finite-precision witness on the
    binary word phibar, read as 0.phibar, at precision m (see
    ``wprime_halts``), on its first m bits and the stage-m value read off
    ``walk``, for m <= its budget.

    The looping branch is decided analytically rather than actually
    looping; downstream consumers only need the predicate.
    """
    if not set(phibar) <= {"0", "1"}:  # int(w, 2) also takes "1_0", " 10" and "+10"
        raise ValueError(f"phibar must be a word over 0 and 1, got {phibar!r}")
    if not 1 <= m <= len(phibar):
        raise ValueError(f"need 1 <= m <= n = {len(phibar)}, got m = {m}")
    return wprime_halts(int(phibar[:m], 2), omega_stage_values(walk, m)[-1], m)
