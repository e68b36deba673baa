"""Exact rounding of rationals to a number of bits.

Phases are any ``fractions.Fraction``; stage values and n-bit estimates
are dyadic by construction.  The witness's truncation of a
halting-probability approximation and the rounding map used after phase
estimation go through one integer core of plain functions of a
numerator, written with shifts, masks, comparisons and floor division
only, so a Python int and an integer numpy array run the same code:
``round_up_num`` and ``truncate_num`` read it over 2^e, and
``best_pair_num``, the one entry point phases pass through, over any
denominator.  ``truncate`` is floor(2^s x) / 2^s on any rational.
Nothing here touches floating point.
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
# Each takes a numerator ``num`` and a precision m >= 0; the round-up and
# the truncation read it over 2^e, e >= 0, and the round-up needs e > m
# and 0 <= num < 2^e.  Results are numerators over 2^e or 2^m.


def round_up_num(num, e: int, m: int):
    """num/2^e + 2^-m (mod 1) if its (m+1)-th fractional bit is set,
    else num/2^e; over 2^e."""
    return (num + (((num >> (e - m - 1)) & 1) << (e - m))) & ((1 << e) - 1)


def truncate_num(num, e: int, m: int):
    """floor(2^m num/2^e): the first m fractional bits, over 2^m."""
    return (num << m) >> e


def best_pair_num(num, den: int, m: int):
    """The floor and the ceiling (mod 2^m) of 2^m num/den, over 2^m, for
    0 <= num < den; the two are equal iff num/den lies on the m-bit grid."""
    low, rem = divmod(num << m, den)  # one division, the costly step on a long 2^m num
    return low, (low + (rem != 0)) & ((1 << m) - 1)


def truncate(x: Fraction, s: int) -> Fraction:
    """Keep the first ``s`` fractional bits of x: floor(2^s x) / 2^s.

    Total on rationals; result <= x and x - result < 2^-s.
    """
    if s < 0:
        raise ValueError(f"truncation length must be >= 0, got {s}")
    return Fraction((x.numerator << s) // x.denominator, 1 << s)
