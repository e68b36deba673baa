"""Exact arithmetic over dyadic rationals p/2^q.

Every comparison against a halting-probability approximation, every
truncation, and the rounding map used after phase estimation go through
this module.  ``Dyadic`` carries only what those need: the sum of two
dyadics, comparison with a dyadic or an int, and exact printing; a float
or a Fraction operand is never converted.  All values are exact; nothing
here touches floating point except the explicit ``__float__``
conversions.

The rounding map has one integer core, ``round_up_num``,
``truncate_num`` and ``best_pair_num``: plain functions of a numerator
over 2^e, written with shifts, masks and comparisons only, so a Python
int and an integer numpy array of raw (not necessarily canonical)
numerators run the same code.  ``truncate`` checks its argument and
computes through it, ``chaitin.wprime_halts`` and ``phase.sweep`` decide
the finite-precision witness with it, and ``qpe.rounding_lemma_scan``
runs it on whole grid rows.
"""

from __future__ import annotations

import operator
from typing import Callable

__all__ = [
    "Dyadic",
    "truncate",
    "round_up_num",
    "truncate_num",
    "best_pair_num",
]


def _ordering(op: Callable[[object, object], bool]) -> Callable[["Dyadic", object], bool]:
    """One order comparison of a Dyadic with a Dyadic or an int."""

    def compare(self: "Dyadic", other: object) -> bool:
        if isinstance(other, int):
            return op(self._num, other << self._exp)
        if isinstance(other, Dyadic):
            shift = self._exp - other._exp  # bring both to the larger exponent
            if shift >= 0:
                return op(self._num, other._num << shift)
            return op(self._num << -shift, other._num)
        return NotImplemented

    return compare


class Dyadic:
    """An exact dyadic rational ``numerator / 2**exponent``.

    Canonical form is maintained after every operation: either the
    exponent is zero or the numerator is odd, so equal values always
    have identical ``(numerator, exponent)`` pairs and equality is
    structural.  Numerators are arbitrary-precision integers.
    """

    __slots__ = ("_num", "_exp")

    def __init__(self, numerator: int, exponent: int = 0) -> None:
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        # an odd numerator or a zero exponent is already canonical
        if exponent and not numerator & 1:
            if numerator == 0:
                exponent = 0
            else:
                # strip shared factors of two
                shift = (numerator & -numerator).bit_length() - 1
                if shift > exponent:
                    shift = exponent
                numerator >>= shift
                exponent -= shift
        _set_num(self, +numerator)  # a bool numerator is stored as its int
        _set_exp(self, exponent)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Dyadic is immutable")

    # -- accessors ----------------------------------------------------

    @property
    def numerator(self) -> int:
        return self._num

    @property
    def exponent(self) -> int:
        return self._exp

    def __float__(self) -> float:
        return self._num / (1 << self._exp)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        e = max(self._exp, other._exp)
        return Dyadic(
            (self._num << (e - self._exp)) + (other._num << (e - other._exp)), e
        )

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._exp == 0 and self._num == other
        if isinstance(other, Dyadic):
            return self._num == other._num and self._exp == other._exp
        return NotImplemented

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __hash__(self) -> int:
        return hash((self._num, self._exp))

    # -- formatting ----------------------------------------------------

    def as_ratio_string(self) -> str:
        """Exact fraction string, e.g. ``"3/4"``; integers print bare."""
        if self._exp == 0:
            return str(self._num)
        return f"{self._num}/{1 << self._exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self._num}, {self._exp})"

    def __str__(self) -> str:
        return self.as_ratio_string()


_set_num = Dyadic._num.__set__  # type: ignore[attr-defined]
_set_exp = Dyadic._exp.__set__  # type: ignore[attr-defined]

ZERO = Dyadic(0)


# -- the integer rounding core ---------------------------------------
# Each takes a numerator ``num`` over 2^e, e >= 0, and a precision m >= 0;
# the round-up needs e > m, and it and the pair need 0 <= num < 2^e.
# Results are numerators too.


def round_up_num(num, e: int, m: int):
    """num/2^e + 2^-m (mod 1) if its (m+1)-th fractional bit is set,
    else num/2^e; over 2^e."""
    return (num + (((num >> (e - m - 1)) & 1) << (e - m))) & ((1 << e) - 1)


def truncate_num(num, e: int, m: int):
    """floor(2^m num/2^e): the first m fractional bits, over 2^m."""
    return (num << m) >> e


def best_pair_num(num, e: int, m: int):
    """The floor and the ceiling (mod 2^m) of 2^m num/2^e, over 2^m; the
    two are equal iff num/2^e lies on the m-bit grid."""
    scaled = num << m
    return scaled >> e, -(-scaled >> e) & ((1 << m) - 1)


def truncate(x: Dyadic, s: int) -> Dyadic:
    """Keep the first ``s`` fractional bits: floor(2^s * x) / 2^s.

    Total on dyadics; result <= x and x - result < 2^-s.
    """
    if s < 0:
        raise ValueError(f"truncation length must be >= 0, got {s}")
    return Dyadic(truncate_num(x._num, x._exp, s), s)
