"""The integer rounding core (the rounding map and the best-approximation
intervals) and ``truncate`` on dyadic Fractions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from omegaphase import dyadic
from omegaphase.dyadic import (
    best_pair_num,
    round_up_num,
    truncate,
    truncate_num,
)

CORE = ("round_up_num", "truncate_num", "best_pair_num")


def exponent(f):
    """e for a Fraction in lowest terms over 2^e."""
    return f.denominator.bit_length() - 1


# every numerator -16..16 over every exponent 0..5, duplicates included
SMALL_GRID = [Fraction(k, 2**e) for e in range(6) for k in range(-16, 17)]


def test_results_are_canonical_and_exact():
    for a in SMALL_GRID:
        for s in range(0, 7):
            t = truncate(a, s)
            assert t == Fraction(math.floor(a * 2**s), 2**s), (a, s)
            assert t.denominator == 1 << exponent(t) and exponent(t) <= s, (a, s)


def test_truncate_examples():
    assert truncate(Fraction(0b101, 8), 2) == Fraction(1, 2)
    assert truncate(Fraction(3, 4), 2) == Fraction(3, 4)
    # halting set {"0", "11"} by hand: 2^-1 + 2^-2 = 3/4; drop to one bit
    omega_toy = Fraction(1, 2) + Fraction(1, 4)
    assert truncate(omega_toy, 1) == Fraction(1, 2)
    for value in (Fraction(1, 3), Fraction(5, 12)):
        with pytest.raises(ValueError, match="power-of-two denominator, not"):
            truncate(value, 2)


def test_truncate_bounds_and_composition():
    grid = [Fraction(k, 64) for k in range(64)]
    for x in grid:
        for s in range(0, 8):
            t = truncate(x, s)
            assert t <= x
            assert x < t + Fraction(1, 2**s)
            for u in range(0, 8):
                assert truncate(t, u) == truncate(x, min(s, u))


def test_round_up_num_examples():
    assert round_up_num(0b0111, 4, 2) == 0b1011
    assert round_up_num(0b0100, 4, 2) == 0b0100
    # wraps modulo 1
    assert round_up_num(0b1110, 4, 1) == 0b0110


def test_round_up_num_distance_property():
    for n in range(2, 9):
        size = 1 << n
        for z in range(size):
            for m in range(1, n):
                # the result is z/2^n moved by 0 or by 2^-m, mod 1
                assert round_up_num(z, n, m) in (z, (z + (size >> m)) % size)


def test_interval_examples():
    # the best m-bit approximations of phi = num/2^e, as the floor and the
    # ceiling (mod 2^m) of 2^m phi over 2^m
    assert best_pair_num(1, 1, 1) == (1, 1)  # 1/2 lies on the 1-bit grid
    assert best_pair_num(15, 4, 2) == (3, 0)  # {3/4, 1}: the ceiling wraps to 0
    assert best_pair_num(5, 3, 2) == (2, 3)  # {1/2, 3/4}
    assert best_pair_num(0, 0, 3) == (0, 0)
    assert best_pair_num(3, 2, 5) == (24, 24)  # e < m: 3/4 is 24/32


def test_interval_singleton_iff_on_grid():
    for m in range(1, 9):
        for z in range(1 << 6):
            phi = Fraction(z, 64)
            pair = best_pair_num(phi.numerator, exponent(phi), m)
            assert best_pair_num(z, 6, m) == pair  # a raw numerator gives the same pair
            on_grid = exponent(phi) <= m  # 2^m phi is an integer
            assert (pair[0] == pair[1]) == on_grid
            for w in pair:
                assert 0 <= w < 1 << m


def test_rounding_lemma_small_grids():
    # estimates within 2^-(m+1) (mod 1) round-truncate into the target set;
    # each phase's pair comes from its canonical numerator, so e <= m too
    for n in range(2, 9):
        size = 1 << n
        for m in range(1, n):
            for w in range(size):
                phi = Fraction(w, size)
                members = set(best_pair_num(phi.numerator, exponent(phi), m))
                radius = 1 << (n - m - 1)
                for off in range(-radius + 1, radius):
                    z = (w + off) % size
                    image = truncate(Fraction(round_up_num(z, n, m), size), m)
                    assert image * 2**m in members


def _outcome(fn, *args):
    """A result as its canonical (numerator, exponent) pair, or a
    ValueError as its message."""
    try:
        result = fn(*args)
    except ValueError as err:
        return str(err)
    return [(result.numerator, exponent(result))]


def _pairs(*values):
    """Canonical (numerator, exponent) pairs of dyadic Fractions."""
    return [(f.numerator, exponent(f)) for f in values]


def test_rounding_ops_exhaustive_against_fractions():
    # every k/2^e with e <= 9 is some k'/512; the range covers [-1, 2)
    for k in range(-512, 1024):
        f = x = Fraction(k, 512)
        num, e = x.numerator, exponent(x)
        for m in range(-1, 12):
            if m < 0:
                want = f"truncation length must be >= 0, got {m}"
            else:
                want = _pairs(Fraction(math.floor(f * 2**m), 2**m))
            assert _outcome(truncate, x, m) == want, (x, m)
            if m < 0:
                continue
            # the core on the canonical pair, off and on the m-bit grid
            assert truncate_num(num, e, m) == math.floor(f * 2**m), (x, m)
            if not 0 <= f < 1:
                continue
            rounded, lo, hi = _core_oracle(f, m)
            assert best_pair_num(num, e, m) == (lo, hi), (x, m)
            if e > m:
                assert Fraction(round_up_num(num, e, m), 1 << e) == rounded, (x, m)


def _core_oracle(f, m):
    """What the core must give for the value f in [0, 1) at m bits, from
    Fractions: the rounded value, and the floor and the ceiling (mod 2^m)
    of 2^m f."""
    bit = math.floor(f * 2 ** (m + 1)) % 2
    rounded = (f + Fraction(1, 2**m)) % 1 if bit else f
    return rounded, math.floor(f * 2**m), math.ceil(f * 2**m) % 2**m


def test_rounding_core_agrees_with_fractions():
    # every z/2^n with n <= 12 and every m < n + 3, on a row of raw int64
    # numerators, on each Python int and on the canonical Fraction's pair;
    # the round-up only where its bit m + 1 lies within the e bits (e > m)
    for n in range(1, 13):
        size = 1 << n
        row = np.arange(size, dtype=np.int64)
        for m in range(n + 3):
            want = [_core_oracle(Fraction(z, size), m) for z in range(size)]
            rounded = [r * size for r, _, _ in want]
            floors = [lo for _, lo, _ in want]
            ceilings = [hi for _, _, hi in want]
            if m < n:
                assert round_up_num(row, n, m).tolist() == rounded, (n, m)
            assert truncate_num(row, n, m).tolist() == floors, (n, m)
            lo, hi = best_pair_num(row, n, m)
            assert (lo.tolist(), hi.tolist()) == (floors, ceilings), (n, m)
            for z in range(size):
                if m < n:
                    assert round_up_num(z, n, m) == rounded[z], (z, n, m)
                assert truncate_num(z, n, m) == floors[z], (z, n, m)
                assert best_pair_num(z, n, m) == (floors[z], ceilings[z]), (z, n, m)
                x = Fraction(z, size)
                num, e = x.numerator, exponent(x)
                if e > m:
                    r = round_up_num(num, e, m)
                    assert Fraction(r, 1 << e) == want[z][0], (z, n, m)
                assert truncate_num(num, e, m) == floors[z], (z, n, m)
                assert best_pair_num(num, e, m) == (floors[z], ceilings[z]), (z, n, m)


def _recording(module, calls, monkeypatch):
    """Patch the core in ``module`` to log (name, e, m, numerator) per call."""
    for name in CORE:
        real = getattr(module, name)

        def wrapper(num, e, m, name=name, real=real):
            calls.append((name, e, m, num))
            return real(num, e, m)

        monkeypatch.setattr(module, name, wrapper)


def test_rounding_lemma_scan_goes_through_the_rounding_ops(monkeypatch):
    # the scan, truncate, the finite-precision witness and the sweep run one
    # core: the scan calls each core function once per (n, m) row, on the
    # whole row 0..2^n - 1
    from omegaphase import chaitin, phase, qpe

    for name in CORE:
        assert getattr(qpe, name) is getattr(dyadic, name)
    assert chaitin.truncate_num is dyadic.truncate_num
    assert phase.best_pair_num is dyadic.best_pair_num
    calls = []
    _recording(qpe, calls, monkeypatch)
    assert qpe.rounding_lemma_scan(12) == (22_271_316, 0)
    rows = [(n, m) for n in range(2, 13) for m in range(1, n)]
    assert len(calls) == 3 * len(rows) == 198
    for name in CORE:
        mine = [(e, m, num) for called, e, m, num in calls if called == name]
        assert [(e, m) for e, m, _ in mine] == rows, name
        for e, m, num in mine:
            # truncate_num runs on the rounded row, a permutation of the grid
            row = np.sort(num) if name == "truncate_num" else num
            assert np.array_equal(row, np.arange(1 << e)), (name, e, m)

    calls = []
    _recording(dyadic, calls, monkeypatch)
    assert truncate(Fraction(0b1011, 16), 2) == Fraction(1, 2)
    assert calls == [("truncate_num", 4, 2, 0b1011)]
