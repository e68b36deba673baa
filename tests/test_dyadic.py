"""Exact-arithmetic substrate: canonical form, truncation, the rounding
map, and best-approximation intervals."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from omegaphase import dyadic
from omegaphase.dyadic import (
    Dyadic,
    best_pair_num,
    interval_Im,
    round_up_mth,
    round_up_num,
    truncate,
    truncate_num,
)

CORE = ("round_up_num", "truncate_num", "best_pair_num")


def frac(d):
    """The exact value of a Dyadic as a Fraction."""
    return Fraction(d.numerator, 1 << d.exponent)


def test_canonical_form():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 3) == Dyadic(3, 2)
    assert Dyadic(0, 5).exponent == 0
    d = Dyadic(12, 4)
    assert d.numerator == 3 and d.exponent == 2
    # bool numerators come out as plain ints, at any exponent and through +
    for flag in (False, True):
        for d in (Dyadic(flag), Dyadic(flag, 3), Dyadic(flag, 2) + Dyadic(0)):
            assert type(d.numerator) is int, repr(d)
        assert str(Dyadic(flag)) == str(int(flag))


# every numerator -16..16 over every exponent 0..5, duplicates included
SMALL_GRID = [Dyadic(k, e) for e in range(6) for k in range(-16, 17)]


def assert_exact(d, f):
    """d is canonical (odd numerator or exponent 0) and equals f."""
    assert d.exponent == 0 or d.numerator % 2 == 1, repr(d)
    assert (d.numerator, 1 << d.exponent) == (f.numerator, f.denominator), (d, f)


def test_results_are_canonical_and_exact():
    for a in SMALL_GRID:
        fa = frac(a)
        assert_exact(a, fa)
        assert_exact(a.mod1(), fa % 1)
        for s in range(0, 7):
            assert_exact(truncate(a, s), Fraction(math.floor(fa * 2**s), 2**s))
        for b in SMALL_GRID:
            assert_exact(a + b, fa + frac(b))
        if not 0 <= fa < 1:
            continue
        for m in range(1, 7):
            step = Fraction(1, 2**m)
            bit = math.floor(fa * 2 ** (m + 1)) % 2
            assert_exact(round_up_mth(a, m), (fa + step) % 1 if bit else fa)
            lo = Fraction(math.floor(fa * 2**m), 2**m)
            want = [lo] if lo == fa else sorted({lo, (lo + step) % 1})
            members = interval_Im(a, m)
            assert len(members) == len(want)
            for d, f in zip(members, want):
                assert_exact(d, f)


def test_order_agrees_with_fractions():
    others = SMALL_GRID + list(range(-3, 4))
    for a, b in itertools.product(SMALL_GRID, others):
        fa = frac(a)
        fb = frac(b) if isinstance(b, Dyadic) else b
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
            fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb, fa != fb
        ), (a, b)
        # reflected: the left operand defers to Dyadic
        assert (b < a, b <= a, b > a, b >= a, b == a) == (
            fb < fa, fb <= fa, fb > fa, fb >= fa, fb == fa
        ), (b, a)


def test_unordered_operands_raise():
    # a Dyadic orders and adds only against a Dyadic (and orders against an
    # int); a float or a Fraction is never converted, and never equal
    for other in (0.5, Fraction(1, 2)):
        for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__add__"):
            assert getattr(Dyadic(1, 1), op)(other) is NotImplemented
        with pytest.raises(TypeError):
            Dyadic(1, 1) <= other
        with pytest.raises(TypeError):
            Dyadic(1, 1) + other
        assert not Dyadic(1, 1) == other
    with pytest.raises(TypeError):
        Dyadic(1, 1) + 1


def test_int_comparisons_agree_with_fractions():
    rng = random.Random(11)
    ints = [-(10**30), -5, -1, 0, 1, 2, 7, 10**30, False, True]
    values = [Dyadic(k, 0) for k in ints] + [Dyadic(1, 64), Dyadic(-(2**70) - 1, 3)]
    for _ in range(300):
        exp = rng.choice([0, 1, 2, 5, 40, 200])
        values.append(Dyadic(rng.randrange(-(2**80), 2**80) >> rng.randrange(0, 90), exp))
    for d, k in itertools.product(values, ints):
        f = frac(d)
        assert (d < k, d <= k, d > k, d >= k, d == k, d != k) == (
            f < k, f <= k, f > k, f >= k, f == k, f != k
        ), (d, k)
        assert (k < d, k == d) == (k < f, k == f), (d, k)


def test_arithmetic_closure():
    a, b = Dyadic(5, 3), Dyadic(3, 1)
    assert a + b == Dyadic(17, 3)
    assert a + Dyadic(-5, 3) == 0
    assert (Dyadic(7, 2)).mod1() == Dyadic(3, 2)
    assert (Dyadic(-1, 2)).mod1() == Dyadic(3, 2)


def test_truncate_examples():
    assert truncate(Dyadic(0b101, 3), 2) == Dyadic(1, 1)
    assert truncate(Dyadic(3, 2), 2) == Dyadic(3, 2)
    # halting set {"0", "11"} by hand: 2^-1 + 2^-2 = 3/4; drop to one bit
    omega_toy = Dyadic(1, 1) + Dyadic(1, 2)
    assert omega_toy == Dyadic(3, 2)
    assert truncate(omega_toy, 1) == Dyadic(1, 1)


def test_truncate_bounds_and_composition():
    grid = [Dyadic(k, 6) for k in range(64)]
    for x in grid:
        for s in range(0, 8):
            t = truncate(x, s)
            assert t <= x
            assert x < t + Dyadic(1, s)
            for u in range(0, 8):
                assert truncate(t, u) == truncate(x, min(s, u))


def test_round_up_mth_examples():
    assert round_up_mth(Dyadic(0b0111, 4), 2) == Dyadic(0b1011, 4)
    assert round_up_mth(Dyadic(0b0100, 4), 2) == Dyadic(0b0100, 4)
    # wraps modulo 1
    assert round_up_mth(Dyadic(0b1110, 4), 1) == Dyadic(0b0110, 4)


def test_round_up_mth_distance_property():
    for n in range(2, 9):
        for z in range(1 << n):
            x = Dyadic(z, n)
            for m in range(1, n):
                # the result is x moved by 0 or by 2^-m, mod 1
                assert round_up_mth(x, m, n_bits=n) in (x, (x + Dyadic(1, m)).mod1())


def test_round_up_mth_rejects_bad_precision():
    with pytest.raises(ValueError):
        round_up_mth(Dyadic(1, 2), 2, n_bits=2)  # m >= declared length
    with pytest.raises(ValueError):
        round_up_mth(Dyadic(1, 4), 1, n_bits=3)  # value needs more bits
    with pytest.raises(ValueError):
        round_up_mth(Dyadic(3, 1), 1)  # outside [0, 1)


def test_interval_examples():
    assert interval_Im(Dyadic(1, 1), 1) == (Dyadic(1, 1),)
    assert interval_Im(Dyadic(15, 4), 2) == (Dyadic(0), Dyadic(3, 2))
    assert interval_Im(Dyadic(5, 3), 2) == (Dyadic(1, 1), Dyadic(3, 2))
    assert interval_Im(Dyadic(0), 3) == (Dyadic(0),)


def test_interval_singleton_iff_on_grid():
    for m in range(1, 5):
        for z in range(1 << 6):
            phi = Dyadic(z, 6)
            members = interval_Im(phi, m)
            on_grid = phi.exponent <= m  # 2^m phi is an integer
            assert (len(members) == 1) == on_grid
            for v in members:
                assert 0 <= v < 1


def test_rounding_lemma_small_grids():
    # estimates within 2^-(m+1) (mod 1) round-truncate into the target set
    for n in range(2, 9):
        size = 1 << n
        for m in range(1, n):
            for w in range(size):
                phi = Dyadic(w, n)
                members = set(interval_Im(phi, m))
                radius = 1 << (n - m - 1)
                for off in range(-radius + 1, radius):
                    z = (w + off) % size
                    image = truncate(round_up_mth(Dyadic(z, n), m, n_bits=n), m)
                    assert image in members


def _outcome(fn, *args):
    """A result as its canonical (numerator, exponent) pairs, or a
    ValueError as its message."""
    try:
        result = fn(*args)
    except ValueError as err:
        return str(err)
    members = result if isinstance(result, tuple) else (result,)
    return [(d.numerator, d.exponent) for d in members]


def _pairs(*values):
    """Canonical (numerator, exponent) pairs of dyadic Fractions."""
    return [(f.numerator, f.denominator.bit_length() - 1) for f in values]


def test_rounding_ops_exhaustive_against_fractions():
    # every k/2^e with e <= 9 is some k'/512; the range covers [-1, 2)
    for k in range(-512, 1024):
        x = Dyadic(k, 9)
        f = frac(x)
        e = x.exponent
        in_unit = 0 <= f < 1
        for m in range(-1, 12):
            if m < 0:
                want = f"truncation length must be >= 0, got {m}"
            else:
                want = _pairs(Fraction(math.floor(f * 2**m), 2**m))
            assert _outcome(truncate, x, m) == want, (x, m)

            step = Fraction(1, 2**m) if m >= 0 else None
            for n_bits in (None, e, e + 2, m):
                n = max(e, m + 1) if n_bits is None else n_bits
                if not in_unit:
                    want = f"round_up_mth requires x in [0, 1), got {f}"
                elif m < 1:
                    want = f"rounding position must be >= 1, got {m}"
                elif n_bits is not None and e > n_bits:
                    want = f"{f} has {e} fractional bits, more than n={n_bits}"
                elif m >= n:
                    want = f"rounding position m={m} must be < fractional length n={n}"
                elif math.floor(f * 2 ** (m + 1)) % 2:
                    want = _pairs((f + step) % 1)
                else:
                    want = _pairs(f)
                assert _outcome(round_up_mth, x, m, n_bits) == want, (x, m, n_bits)

            if m < 1:
                want = f"precision m must be >= 1, got {m}"
            elif not in_unit:
                want = f"interval_Im requires phi in [0, 1), got {f}"
            else:
                lo = Fraction(math.floor(f * 2**m), 2**m)
                want = _pairs(*([lo] if lo == f else sorted({lo, (lo + step) % 1})))
            assert _outcome(interval_Im, x, m) == want, (x, m)


def _core_oracle(f, m):
    """What the core must give for the value f in [0, 1) at m bits, from
    Fractions: the rounded value, and the floor and the ceiling (mod 2^m)
    of 2^m f."""
    bit = math.floor(f * 2 ** (m + 1)) % 2
    rounded = (f + Fraction(1, 2**m)) % 1 if bit else f
    return rounded, math.floor(f * 2**m), math.ceil(f * 2**m) % 2**m


def test_rounding_core_agrees_with_fractions():
    # every z/2^n with n <= 12 and every m < n, on a row of raw int64
    # numerators, on each Python int and on the canonical Dyadic's pair
    for n in range(1, 13):
        size = 1 << n
        row = np.arange(size, dtype=np.int64)
        for m in range(n):
            want = [_core_oracle(Fraction(z, size), m) for z in range(size)]
            rounded = [r * size for r, _, _ in want]
            floors = [lo for _, lo, _ in want]
            ceilings = [hi for _, _, hi in want]
            assert round_up_num(row, n, m).tolist() == rounded, (n, m)
            assert truncate_num(row, n, m).tolist() == floors, (n, m)
            lo, hi = best_pair_num(row, n, m)
            assert (lo.tolist(), hi.tolist()) == (floors, ceilings), (n, m)
            for z in range(size):
                assert round_up_num(z, n, m) == rounded[z], (z, n, m)
                assert truncate_num(z, n, m) == floors[z], (z, n, m)
                assert best_pair_num(z, n, m) == (floors[z], ceilings[z]), (z, n, m)
                x = Dyadic(z, n)
                num, e = x.numerator, x.exponent
                if e <= m:  # on the m-bit grid: the ops return x itself
                    continue
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
    # the scan and the three Dyadic ops run one core: the scan calls each
    # core function once per (n, m) row, on the whole row 0..2^n - 1
    from omegaphase import qpe

    for name in CORE:
        assert getattr(qpe, name) is getattr(dyadic, name)
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
    x = Dyadic(0b1011, 4)
    assert round_up_mth(x, 2) == Dyadic(0b1111, 4)
    assert truncate(x, 2) == Dyadic(1, 1)
    assert interval_Im(x, 2) == (Dyadic(1, 1), Dyadic(3, 2))
    assert calls == [
        ("round_up_num", 4, 2, 0b1011),
        ("truncate_num", 4, 2, 0b1011),
        ("best_pair_num", 4, 2, 0b1011),
    ]


def test_round_up_mth_ignores_valid_n_bits():
    # n_bits only validates the precision: every valid n_bits up to 12
    # gives the same Dyadic.  These are the 81,924 (x, m, n_bits) triples
    # of one call per (n, m, z) for n <= 12.
    triples = 0
    for z in range(1 << 12):
        x = Dyadic(z, 12)
        for m in range(1, 12):
            want = round_up_mth(x, m)
            for k in range(max(x.exponent, m + 1, 2), 13):
                assert round_up_mth(x, m, n_bits=k) == want, (x, m, k)
                triples += 1
    assert triples == 81_924
