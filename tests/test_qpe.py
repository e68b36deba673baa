"""Phase-estimation distribution, and its tail and rounding-success
bounds."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from omegaphase import cli, qpe
from omegaphase.dyadic import best_pair_num, round_up_num, truncate, truncate_num
from omegaphase.qpe import qpe_distribution, rounding_lemma_scan, tail_and_success

SAMPLE_PHASES = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(100, 257)]
# phases whose windows wrap around 0 at high precision
WRAP_PHASES = [
    Fraction(2**14 - 1, 2**14) + Fraction(1, 2**20),
    Fraction(2**10 - 1, 2**10) + Fraction(1, 2**16),
    Fraction(1, 2**20),
]


def _signed_offsets(phi, n):
    """Integer parts t(z) and fractional part a of 2^n*delta(z) = t + a,
    in z order.

    delta(z) = phi - z/2^n reduced mod 1 so that |delta| <= 1/2; with
    a = frac(2^n phi) in (0, 1) fixed, t(z) runs over the integers in
    [-2^(n-1), 2^(n-1) - 1].
    """
    size = 1 << n
    scaled = phi * size
    base = math.floor(scaled)
    a = scaled - base
    t = (base - np.arange(size)) % size
    t = np.where(t >= size // 2, t - size, t)
    return t, a


# sized for test_kernel_matches_mask_reference, which walks m outside the
# phases: the offsets of every distribution at one n, the images of one (n, m)
_offsets = functools.lru_cache(maxsize=512)(_signed_offsets)


@functools.lru_cache(maxsize=1)
def _rounded_outcomes(n, m):
    """Integer image of every n-bit outcome under round-up-then-truncate:
    outcome z is the fraction z/2^n; add 2^-m when bit m+1 is set (mod 1),
    keep m bits."""
    z = np.arange(1 << n, dtype=np.int64)
    if m == n:
        return z
    bit = (z >> (n - m - 1)) & 1
    rounded = (z + (bit << (n - m))) & ((1 << n) - 1)
    return rounded >> (n - m)


def rounded_value_dyadic(z, n, m):
    """Reference path for a single outcome via the scalar rounding core
    and the exact truncation."""
    return truncate(Fraction(round_up_num(z, n, m) if m < n else z, 2**n), m)


def reference_tail_and_success(dist, m):
    """Boolean-mask sums over the outcomes: the tail from the signed
    offsets t(z), the success from the rounded image of every outcome."""
    n = dist.n
    tail = None
    if m < n:
        tail = 0.0
        if not dist.exact:
            t, _ = _offsets(dist.phi, n)
            # |t + a| >= 2^(n-m-1) with a in (0,1) <=> t >= B or t <= -B - 1
            bound = 1 << (n - m - 1)
            mask = (t >= bound) | (t <= -bound - 1)
            tail = float(dist.probabilities[mask].sum())
    scaled = dist.phi * (1 << m)
    lo = math.floor(scaled) % (1 << m)
    targets = {lo} if scaled.denominator == 1 else {lo, (lo + 1) % (1 << m)}
    mask = np.isin(_rounded_outcomes(n, m), np.array(sorted(targets), dtype=np.int64))
    return tail, float(dist.probabilities[mask].sum())


def test_exact_phases_unit_mass():
    dist = qpe_distribution(Fraction(1, 2), 1)
    assert dist.exact and dist.probabilities[1] == 1.0
    dist = qpe_distribution(Fraction(1, 4), 2)
    assert dist.exact and dist.probabilities[1] == 1.0
    dist = qpe_distribution(0, 4)
    assert dist.exact and dist.probabilities[0] == 1.0


def test_distribution_normalised_and_peaked():
    for phi in SAMPLE_PHASES:
        for n in (3, 6, 10):
            dist = qpe_distribution(phi, n)
            assert abs(dist.probabilities.sum() - 1.0) < 1e-12
            assert (dist.probabilities >= 0).all()
            # the peak is one of the two nearest grid points
            target = float(phi) * 2**n
            peak = dist.probabilities.argmax()
            assert peak in (math.floor(target) % 2**n, math.ceil(target) % 2**n)


def test_distribution_matches_offset_formula():
    # the in-place row is, bit for bit, the z-order formula
    # sin(pi a) / (2^n sin(pi (t + a) / 2^n)), squared and normalised, both
    # alone and as a row of a block that mixes in grid phases
    for n in range(1, 21):
        phis = WRAP_PHASES + SAMPLE_PHASES + [Fraction(k, 257) for k in range(1, 257) if n <= 10]
        phis += [Fraction(k, 16) for k in range(0, 16, 3)]
        per_block = max(1, qpe.BLOCK_OUTCOMES >> n)
        for start in range(0, len(phis), per_block):
            chunk = phis[start : start + per_block]
            rows, _, _ = qpe._distribution_rows(chunk, n)
            for phi, row in zip(chunk, rows):
                t, a = _signed_offsets(phi, n)
                if a == 0:  # on the grid: unit mass
                    expected = np.zeros(1 << n)
                    expected[(phi * (1 << n)).numerator % (1 << n)] = 1.0
                else:
                    af = float(a)
                    size = 1 << n
                    amp = np.sin(math.pi * af) / (size * np.sin(math.pi * (t + af) / size))
                    expected = amp * amp
                    expected /= expected.sum()
                assert row.tobytes() == expected.tobytes(), (phi, n)
                got = qpe_distribution(phi, n).probabilities
                assert got.tobytes() == expected.tobytes(), (phi, n)


def traced_peak_mb(fn):
    """tracemalloc peak of one call, in MB; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_estimation_memory_stays_flat(tmp_path):
    # the CSV strings are built per block, not for all 2^16 rows at once,
    # and the lemma scan compares one 2^n slice per window offset
    probs = qpe_distribution(Fraction(100, 257), 16).probabilities
    assert traced_peak_mb(lambda: cli._write_qpe_csv(tmp_path / "qpe.csv", 16, probs)) < 2.0
    assert traced_peak_mb(lambda: rounding_lemma_scan(12)) < 1.2
    # the bound scan holds one block of at most 2^16 outcomes at a time
    # (all 256 rows at n = 14 would be 32 MB); one distribution at n = 20
    # holds two 2^20 float arrays (16 MB) and a few small ones
    phases = [Fraction(k, 257) for k in range(1, 257)]
    assert traced_peak_mb(lambda: qpe.bound_scan(phases, 14)) < 3.0
    assert traced_peak_mb(lambda: qpe_distribution(Fraction(100, 257), 20)) < 16.1


def test_third_at_three_bits_example():
    dist = qpe_distribution(Fraction(1, 3), 3)
    assert dist.probabilities.argmax() == 3  # 3/8 is the best 3-bit value


def test_precision_range_enforced():
    with pytest.raises(ValueError):
        qpe_distribution(Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        qpe_distribution(Fraction(1, 3), 21)
    for phi in (Fraction(3, 2), Fraction(1), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="phase"):
            qpe_distribution(phi, 4)


@pytest.mark.parametrize("n_max", [1, qpe.MAX_PRECISION_BITS + 1])
def test_scans_refuse_n_max_before_any_work(monkeypatch, n_max):
    def no_work(*args, **kwargs):
        raise AssertionError("the scan did work before checking n_max")

    names = ("qpe_distribution", "_distribution_rows", "round_up_num", "truncate_num", "best_pair_num")
    for name in names:
        monkeypatch.setattr(qpe, name, no_work)
    with pytest.raises(ValueError, match="n_max"):
        qpe.bound_scan([Fraction(1, 2)], n_max)
    with pytest.raises(ValueError, match="n_max"):
        rounding_lemma_scan(n_max)


def test_tail_examples():
    assert tail_and_success(qpe_distribution(Fraction(1, 4), 8), 4)[0] == 0.0
    dist8 = qpe_distribution(Fraction(1, 3), 8)
    t8, _ = tail_and_success(dist8, 4)
    t12, _ = tail_and_success(qpe_distribution(Fraction(1, 3), 12), 4)
    assert t8 <= 2**-4
    assert t12 <= 2**-8
    assert t12 < t8
    assert tail_and_success(dist8, 8)[0] is None
    for m in (0, 9):
        with pytest.raises(ValueError):
            tail_and_success(dist8, m)


def test_tail_bound_sample_grid():
    for phi in SAMPLE_PHASES:
        for n in (6, 9, 12):
            dist = qpe_distribution(phi, n)
            for m in range(1, n):
                assert tail_and_success(dist, m)[0] <= 2.0 ** -(n - m) + 1e-15


def test_success_examples():
    assert tail_and_success(qpe_distribution(Fraction(5, 8), 3), 3)[1] == 1.0
    _, s = tail_and_success(qpe_distribution(Fraction(1, 3), 10), 3)
    assert s >= 1 - 2**-7
    wrap = 15 * 2**10 + 1  # 15/16 + 2^-14 over 2^14: the ceiling wraps to 0
    assert best_pair_num(wrap, 14, 2) == (3, 0)
    _, s = tail_and_success(qpe_distribution(Fraction(wrap, 2**14), 10), 2)
    assert s >= 1 - 2**-8


def test_success_bound_sample_grid():
    for phi in SAMPLE_PHASES:
        for n in (6, 9, 12):
            dist = qpe_distribution(phi, n)
            for m in range(1, n + 1):
                _, s = tail_and_success(dist, m)
                assert s >= 1 - 2.0 ** -(n - m) - 1e-15


def test_integer_pipeline_matches_dyadic_ops():
    # the vectorised outcome map is bit-for-bit the dyadic round/truncate
    for n in range(2, 9):
        for m in range(1, n + 1):
            images = _rounded_outcomes(n, m)
            for z in range(1 << n):
                reference = rounded_value_dyadic(z, n, m)
                scaled = reference * 2**m
                assert images[z] == scaled


def test_kernel_matches_mask_reference():
    # the arc sums are bit-identical to the boolean-mask sums, wraps included
    for n in list(range(1, 15)) + [20]:
        phis = WRAP_PHASES + [Fraction(k, 257) for k in range(257) if n <= 10]
        dists = [qpe_distribution(phi, n) for phi in phis]
        for m in range(1, n + 1):  # outer, so each outcome-image array is built once
            for dist in dists:
                got = tail_and_success(dist, m)
                assert got == reference_tail_and_success(dist, m), (dist.phi, n, m)


def exhaustive_bound_scan(phis, n_max):
    """The bound scan as one loop over every (phase, n, m), each pair
    through the exact kernel on its own distribution."""
    rows = []
    for n in range(2, n_max + 1):
        worst_tail, worst_margin, violations = 0.0, 1.0, 0
        for phi in phis:
            dist = qpe_distribution(phi, n)
            for m in range(1, n):
                tail, success = tail_and_success(dist, m)
                bound = 2.0 ** -(n - m)
                worst_tail = max(worst_tail, tail / bound)
                worst_margin = min(worst_margin, success - (1.0 - bound))
                violations += tail > bound or success < 1.0 - bound
        rows.append((n, worst_tail, worst_margin, violations))
    return rows


def assert_bound_scan_matches_loop(phis, n_max):
    got = qpe.bound_scan(phis, n_max)
    assert got == exhaustive_bound_scan(phis, n_max)
    # plain floats, as the CLI writes them
    assert all(type(value) is float for row in got for value in row[1:3])
    return got


_RNG = np.random.default_rng(34)
RANDOM_PHASES = [
    Fraction(int(k), den) for den in (3, 7, 1000, 12345) for k in _RNG.integers(0, den, 12)
]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no 0/0 surfaces from one-hot rows
@pytest.mark.parametrize(
    "phis, n_max",
    [
        ([Fraction(k, 257) for k in range(1, 257)], 14),
        ([Fraction(k, 16) for k in range(16)], 14),
        ([Fraction(k, 2**10) for k in range(2**10)], 12),
        (WRAP_PHASES, 20),
        (RANDOM_PHASES, 12),
    ],
    ids=["k/257", "k/16", "k/1024", "wrap", "random"],
)
def test_bound_scan_matches_exhaustive_loop(phis, n_max):
    assert_bound_scan_matches_loop(phis, n_max)


def test_prefix_estimates_within_documented_tol():
    # on random rows, every estimate is within tol = 4 (2^n + 2) 2^-53 s of
    # the exact kernel's arc sum, s the row's last prefix sum; the full-row
    # success at m = 1 is exact
    rng = np.random.default_rng(7)
    for n in (2, 3, 7, 12, 16):
        size = 1 << n
        phis = [phi for phi in RANDOM_PHASES if (phi * size).denominator != 1]
        rows = rng.random((len(phis), size)) ** 8 * rng.uniform(0.5, 2.0, (len(phis), 1))
        bases = np.array([(phi.numerator << n) // phi.denominator for phi in phis])
        estimates = qpe._arc_estimates(rows, bases, np.zeros(len(phis), dtype=bool), n)
        tails, tail_tol, successes, success_tol = estimates
        tol = 4 * (size + 2) * 2.0**-53 * np.cumsum(rows, axis=1)[:, -1]
        for i, phi in enumerate(phis):
            dist = qpe.PhaseDistribution(n, phi, rows[i].copy(), exact=False)
            for m in range(1, n):
                tail, success = tail_and_success(dist, m)
                assert tail_tol[i, m - 1] == tol[i]
                assert abs(tails[i, m - 1] - tail) <= tol[i], (phi, n, m)
                assert success_tol[i, m - 1] == (0.0 if m == 1 else tol[i])
                assert abs(successes[i, m - 1] - success) <= success_tol[i, m - 1], (phi, n, m)


def test_bound_scan_counts_broken_rows(monkeypatch):
    # rows whose tail at m = n - 1 is its bound 1/2 up to rounding: a quarter
    # on each of the two outcomes of the window, the other half spread evenly
    # over the rest and scaled by 1 - 2^-52, 1 or 1 + 2^-52 by phase, so
    # those pairs fall on either side of the bound or on it; the smaller m
    # see tails far above theirs
    build = qpe._distribution_rows

    def broken(phis, n):
        rows, bases, on_grid = build(phis, n)
        size = rows.shape[1]
        for i in np.flatnonzero(~on_grid):
            base = int(bases[i])
            rows[i] = 0.5 / (size - 2) * (1 + (base % 3 - 1) * 2.0**-52)
            rows[i, [base, (base + 1) % size]] = 0.25
        return rows, bases, on_grid

    monkeypatch.setattr(qpe, "_distribution_rows", broken)
    phis = [Fraction(k, 257) for k in range(1, 257)]
    got = assert_bound_scan_matches_loop(phis, 9)
    assert all(row[3] > 0 for row in got)


def test_nearest_two_mass():
    # the two nearest outcomes jointly carry at least 8/pi^2
    floor_bound = 8.0 / math.pi**2 - 1e-9
    for phi in SAMPLE_PHASES:
        for n in (4, 8, 12):
            dist = qpe_distribution(phi, n)
            target = float(phi) * 2**n
            lo = math.floor(target) % 2**n
            hi = math.ceil(target) % 2**n
            mass = dist.probabilities[lo] + dist.probabilities[hi]
            assert mass >= floor_bound


def scalar_rounding_counts(n):
    """(checked, violations) of one grid n, pair by pair: phase w against
    every estimate z with |z - w| mod 2^n below the radius, through the
    truncate_num the scan sees, on z's numerator over 2^n; the members
    are the floor and the ceiling (mod 2^m) of 2^m w/2^n, from Fractions."""
    size = 1 << n
    checked = violations = 0
    for m in range(1, n):
        radius = 1 << (n - m - 1)
        for w in range(size):
            scaled = Fraction(w << m, size)
            members = {math.floor(scaled), math.ceil(scaled) % (1 << m)}
            for off in range(-radius + 1, radius):
                z = (w + off) % size
                image = qpe.truncate_num(round_up_num(z, n, m), n, m)
                checked += 1
                violations += image not in members
    return checked, violations


def assert_scan_matches_pair_loop():
    checked = violations = 0
    for n in range(2, 8):
        c, v = scalar_rounding_counts(n)
        checked, violations = checked + c, violations + v
        assert rounding_lemma_scan(n) == (checked, violations), n


def test_rounding_scan_matches_pair_loop():
    assert_scan_matches_pair_loop()
    assert rounding_lemma_scan(7)[1] == 0


def break_truncate(monkeypatch):
    # a truncation that is wrong on some values, the wrapping top cell
    # included, so a misaligned or unwrapped window would count differently:
    # 2^-m too high (mod 1) where it is wrong, on an int and on a row alike
    def broken(num, e, m):
        wrong = (num % 3 == 1) | (num == 0)
        return (truncate_num(num, e, m) + wrong) & ((1 << m) - 1)

    monkeypatch.setattr(qpe, "truncate_num", broken)


def test_rounding_scan_counts_broken_truncation(monkeypatch):
    break_truncate(monkeypatch)
    assert_scan_matches_pair_loop()
    assert rounding_lemma_scan(7)[1] > 0
