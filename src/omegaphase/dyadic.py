"""Exact rounding of dyadic rationals p/2^q to a number of bits.

Phases and stage values are ``fractions.Fraction``s whose denominators
are powers of two; this module rounds them.  Every truncation against a
halting-probability approximation and the rounding map used after phase
estimation go through one integer core, ``round_up_num``,
``truncate_num`` and ``best_pair_num``: plain functions of a numerator
over 2^e, written with shifts, masks and comparisons only, so a Python
int and an integer numpy array of raw (not necessarily canonical)
numerators run the same code.  ``truncate`` checks its argument and
computes through it, ``chaitin.wprime_halts`` and ``phase.sweep`` decide
the finite-precision witness with it, and ``qpe.rounding_lemma_scan``
runs it on whole grid rows.  Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "truncate",
    "round_up_num",
    "truncate_num",
    "best_pair_num",
]


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


def truncate(x: Fraction, s: int) -> Fraction:
    """Keep the first ``s`` fractional bits of a dyadic x: floor(2^s x) / 2^s.

    Total on dyadics; result <= x and x - result < 2^-s.
    """
    if s < 0:
        raise ValueError(f"truncation length must be >= 0, got {s}")
    e = x.denominator.bit_length() - 1
    if x.denominator != 1 << e:
        raise ValueError(f"truncate needs a power-of-two denominator, not {x.denominator}")
    return Fraction(truncate_num(x.numerator, e, s), 1 << s)
