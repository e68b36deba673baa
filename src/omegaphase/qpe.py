"""The n-bit phase-estimation output distribution, its tail bound, the
round-then-truncate success probability, and the scans that check both
bounds and the rounding lemma on every case.

Phases are exact rationals (``Fraction``), and every phase, window and
grid comparison below is decided exactly on integers; each Pr[z] is a
float, and every probability a float sum over the 2^n outcomes.  The
bound scan reports the extremes and the violation count of the kernel on
every (phase, n, m), but runs it only where prefix-sum estimates cannot
decide them; their tolerance bounds an estimate against the kernel's
float pairwise sum, not against the real distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dyadic import best_pair_num, round_up_num, truncate_num

__all__ = [
    "PhaseDistribution",
    "qpe_distribution",
    "tail_and_success",
    "bound_scan",
    "rounding_lemma_scan",
]

MAX_PRECISION_BITS = 20
BLOCK_OUTCOMES = 1 << 16


@dataclass(frozen=True)
class PhaseDistribution:
    """The 2^n-outcome distribution of n-bit phase estimation on phi."""

    n: int
    phi: Fraction
    probabilities: np.ndarray = field(repr=False)
    exact: bool

    def __post_init__(self) -> None:
        self.probabilities.setflags(write=False)


def _distribution_rows(phis: list[Fraction], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-bit distributions of ``phis`` as the rows of one block, with
    each phase's base floor(2^n phi) and whether 2^n phi is an integer.

    Each phase is read once as divmod(num << n, den): the base and the
    fraction a = frac(2^n phi).  A phase on the grid (a = 0) gets unit
    mass on its base; the other rows are built on a block of their own
    (the whole block when no phase is on the grid).  In z order the signed
    offset t(z) = base - z (mod 2^n), in [-2^(n-1), 2^(n-1) - 1], falls by
    one from t(0) to -2^(n-1) and then wraps to 2^(n-1) - 1, so two slice
    copies of one descending array fill a row.  The amplitudes
    sin(pi a) / (2^n sin(pi (t + a) / 2^n)) are then built in place,
    squared and each row normalised by its own pairwise sum, every step
    element by element or on one row.
    """
    size = 1 << n
    half = size >> 1
    bases, fracs, on_grid = [], [], []
    for phi in phis:
        base, rem = divmod(phi.numerator << n, phi.denominator)
        if not 0 <= base < size:  # phi outside [0, 1)
            raise ValueError(f"phase must lie in [0, 1), got {phi}")
        bases.append(base)
        fracs.append(rem / phi.denominator)
        on_grid.append(rem == 0)
    bases, fracs, on_grid = np.array(bases, dtype=np.int64), np.array(fracs), np.array(on_grid, dtype=bool)
    rows = np.zeros((len(phis), size))
    off = np.flatnonzero(~on_grid)
    if off.size:
        block = rows if off.size == len(phis) else np.empty((off.size, size))
        descending = np.arange(half - 1, -half - 1, -1, dtype=np.float64)
        for row, base in zip(block, bases[off].tolist()):
            cut = (base + half) % size + 1  # z = cut - 1 has t = -2^(n-1)
            row[:cut] = descending[size - cut :]
            row[cut:] = descending[: size - cut]
        a = fracs[off, None]
        block += a
        block *= math.pi
        block /= size
        np.sin(block, out=block)
        block *= size
        # numerator sin(pi * 2^n * delta) = sin(pi * a) for every outcome
        np.divide(np.sin(math.pi * a), block, out=block)
        block *= block
        block /= block.sum(axis=1, keepdims=True)
        if block is not rows:
            rows[off] = block
    rows[on_grid, bases[on_grid]] = 1.0
    return rows, bases, on_grid


def qpe_distribution(phi: Fraction, n: int) -> PhaseDistribution:
    """Output distribution of n-bit phase estimation on the rational phase
    ``phi`` in [0, 1): the one-row block of ``_distribution_rows``.

    A phase on the 2^n grid gives unit mass on its own outcome; otherwise
    Pr[z] = sin^2(pi 2^n delta(z)) / (2^(2n) sin^2(pi delta(z))) with
    delta(z) the mod-1 deviation reduced to |delta| <= 1/2, normalised.
    """
    if not 1 <= n <= MAX_PRECISION_BITS:
        raise ValueError(f"precision n must be in [1, {MAX_PRECISION_BITS}], got {n}")
    rows, _, on_grid = _distribution_rows([phi], n)
    return PhaseDistribution(n, phi, rows[0], exact=bool(on_grid[0]))


def _arc_sum(probs: np.ndarray, start: int, length: int) -> float:
    """Sum of the cyclic arc of `length` entries from index `start`, in
    index order (the pairwise sum of the same values a mask would pick)."""
    size = probs.size
    start %= size
    end = start + length
    if end <= size:
        return float(np.add.reduce(probs[start:end]))
    return float(np.add.reduce(np.concatenate((probs[: end - size], probs[start:]))))


def tail_and_success(dist: PhaseDistribution, m: int) -> tuple[float | None, float]:
    """Tail and rounding-success probabilities of one distribution at m bits.

    The tail is the probability that the n-bit estimate deviates from phi
    by at least 2^-(m+1) (mod 1), bounded above by 2^-(n-m); it is None
    when m == n.  The success is the probability that rounding the
    estimate to m bits (round-up-then-truncate) hits a best m-bit
    approximation of phi, wraparound included; bounded below by
    1 - 2^-(n-m).

    Both are sums over one cyclic arc of the 2^n outcomes, decided exactly
    on the integer grid.  With w = 2^(n-m) and h = w // 2: the estimates
    within the deviation window are z in [floor(2^n phi) - h + 1,
    floor(2^n phi) + h], and outcome z rounds to m-bit value j exactly
    when z lies in [j w - h, j w + h - 1] (mod 2^n).  Each arc is summed in
    index order, so the float sum equals that of a boolean mask.
    """
    n = dist.n
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got m={m}, n={n}")
    probs = dist.probabilities
    size = 1 << n
    w = 1 << (n - m)
    h = w >> 1
    num, den = dist.phi.numerator, dist.phi.denominator
    tail = None
    if m < n:
        tail = _arc_sum(probs, (num << n) // den + h + 1, size - w)
    lo, hi = best_pair_num(num, den, m)  # one target when 2^m phi is an integer
    success = _arc_sum(probs, lo * w - h, (2 if lo != hi else 1) * w)
    return tail, success


def _prefix_arcs(prefix: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Cyclic arc sums of every row from its prefix sums (``prefix[:, k]``
    sums the first k entries): the arc from ``start`` of ``length``
    entries, ending at end = start + length, is
    (prefix[min(end, size)] - prefix[start]) + prefix[max(end - size, 0)],
    the last term the part that wraps past the end of the row."""
    size = prefix.shape[1] - 1
    end = start + length
    take = functools.partial(np.take_along_axis, prefix, axis=1)
    return (take(np.minimum(end, size)) - take(start)) + take(np.maximum(end - size, 0))


def _arc_estimates(
    rows: np.ndarray, bases: np.ndarray, on_grid: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tail and success of every row of ``_distribution_rows`` at every
    m = 1 .. n-1 (one column per m), on the arcs of ``tail_and_success``,
    from the rows' prefix sums, each with its tolerance (see
    ``bound_scan``): the tails, their tols, the successes and their tols.
    Exact estimates have tol 0: every arc of a one-hot row (its prefix
    sums are 0 or 1), and the success at m = 1 of every other row, whose
    arc is the whole row, taken as the row's own pairwise sum.
    """
    size = rows.shape[1]
    prefix = np.empty((rows.shape[0], size + 1))
    prefix[:, 0] = 0.0
    np.cumsum(rows, axis=1, out=prefix[:, 1:])
    k = np.arange(n - 1, 0, -1)  # n - m
    w = 1 << k
    h = w >> 1
    base = bases[:, None]
    tails = _prefix_arcs(prefix, (base + h + 1) % size, size - w)
    # two targets unless 2^m phi = base / 2^(n-m) is an integer
    split = ~on_grid[:, None] | (base & (w - 1) != 0)
    successes = _prefix_arcs(prefix, ((base >> k) * w - h) % size, np.where(split, 2 * w, w))
    successes[:, 0] = np.where(split[:, 0], rows.sum(axis=1), successes[:, 0])
    tol = np.where(on_grid[:, None], 0.0, 4 * (size + 2) * 2.0**-53 * prefix[:, -1:])
    tail_tol = np.repeat(tol, n - 1, axis=1)
    success_tol = tail_tol.copy()
    success_tol[:, 0] = 0.0
    return tails, tail_tol, successes, success_tol


def bound_scan(phis: list[Fraction], n_max: int) -> list[tuple[int, float, float, int]]:
    """Check the tail and success bounds for every phase, every n in
    [2, n_max] and every m < n.

    Returns one row (n, max tail / bound, min success margin, violations)
    per n, where the bound is 2^-(n-m), the margin is success - (1 - bound)
    and a violation is a tail above or a success below its bound.  Every
    (phase, n, m) is covered, and the extremes and the count are exactly
    those of ``tail_and_success`` run on every pair; it runs only where
    it is needed.  ``n_max`` must lie in [2, MAX_PRECISION_BITS]; it is
    checked before any work.

    Per n, the distributions are built in blocks of rows, at most 2^16
    outcomes a block, and every tail and success is estimated from the
    rows' prefix sums (``_arc_estimates``).  Each estimate lies within
    tol = 4 (2^n + 2) 2^-53 s of the exact ``_arc_sum`` on the same row,
    s the row's last prefix sum (Higham, SIAM J. Sci. Comput. 14(4),
    1993).  With u = 2^-53, N = 2^n and g = (N - 1) u / (1 - (N - 1) u):
    every prefix sum of nonnegative entries is a recursive sum, within g
    times the true row sum S of its exact value; an estimate combines
    three of them in two roundings, within 3 g S + 2 u S (1 + 3 g); the
    exact sum is another summation order of the same nonnegative entries,
    within g S.  That is (4N - 2) u S up to terms in N^2 u^2, and
    S <= s (1 + 2g).  The (4N + 8) u s of tol leaves about 10 u s over,
    which covers the rounding of tol itself and of the one addition or
    subtraction that widens an estimate to [estimate - tol,
    estimate + tol], so each comparison below decides the exact value's
    side.

    The exact kernel then runs, on the rebuilt row, only for the pairs
    whose interval can still hold the max tail / bound (its upper end at
    least the largest lower end of all pairs), the min margin (its lower
    end at most the least upper end), or the pair's own bound (neither a
    violation nor its absence decided).  A pair whose interval lies past
    its bound counts as a violation without it, and an estimate with tol
    0 is taken as the exact value.
    """
    if not phis:
        raise ValueError("empty scan: no phases")
    if not 2 <= n_max <= MAX_PRECISION_BITS:
        raise ValueError(f"n_max must be in [2, {MAX_PRECISION_BITS}], got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        per_block = max(1, BLOCK_OUTCOMES >> n)
        blocks = [
            _arc_estimates(*_distribution_rows(phis[i : i + per_block], n), n)
            for i in range(0, len(phis), per_block)
        ]
        tails, tail_tol, successes, success_tol = (np.concatenate(parts) for parts in zip(*blocks))
        bound = 2.0 ** -np.arange(n - 1, 0, -1)
        floor = 1.0 - bound
        tail_lo, tail_hi = tails - tail_tol, tails + tail_tol
        success_lo, success_hi = successes - success_tol, successes + success_tol
        tail_open = tail_hi / bound >= np.max(tail_lo / bound)
        margin_open = success_lo - floor <= np.min(success_hi - floor)
        violated = (tail_lo > bound) | (success_hi < floor)
        undecided = ~violated & ((tail_hi > bound) | (success_lo < floor))
        # an estimate with tol 0 is the exact value; the kernel runs for the rest
        tail_open_exact = tail_open & (tail_tol == 0)
        margin_open_exact = margin_open & (success_tol == 0)
        worst_tail = np.max((tails / bound)[tail_open_exact], initial=0.0).item()
        worst_margin = np.min((successes - floor)[margin_open_exact], initial=1.0).item()
        violations = int(np.count_nonzero(violated))
        kernel = tail_open & ~tail_open_exact | margin_open & ~margin_open_exact | undecided
        for i in np.flatnonzero(kernel.any(axis=1)):  # one rebuilt row at a time
            dist = qpe_distribution(phis[i], n)
            for j in np.flatnonzero(kernel[i]):
                m = int(j) + 1
                tail, success = tail_and_success(dist, m)
                pair_bound = 2.0 ** -(n - m)
                if tail_open[i, j]:
                    worst_tail = max(worst_tail, tail / pair_bound)
                if margin_open[i, j]:
                    worst_margin = min(worst_margin, success - (1.0 - pair_bound))
                if undecided[i, j] and (tail > pair_bound or success < 1.0 - pair_bound):
                    violations += 1
        rows.append((n, worst_tail, worst_margin, violations))
    return rows


def rounding_lemma_scan(n_max: int) -> tuple[int, int]:
    """Exhaustive rounding-lemma check on all dyadic grids up to n_max bits.

    For every n, m < n, every n-bit estimate within 2^-(m+1) (mod 1) of
    every n-bit phase must round-then-truncate into the phase's best
    m-bit approximations.  Each point z/2^n is both an estimate and a
    phase, so per (n, m) the dyadic rounding core runs once on the row of
    numerators 0..2^n - 1, giving the image of every estimate and both
    best approximations of every phase, each as its numerator over 2^m.
    The pairs are then compared per window offset: phase w against
    estimate z = w + start - radius + 1 (mod 2^n) for every w at once,
    one 2^n slice of the wrapped image row per offset, so beyond one
    grid's rows the memory does not grow.  ``n_max`` must lie in
    [2, MAX_PRECISION_BITS]; it is checked before any work.
    """
    if not 2 <= n_max <= MAX_PRECISION_BITS:
        raise ValueError(f"n_max must be in [2, {MAX_PRECISION_BITS}], got {n_max}")
    checked = violations = 0
    for n in range(2, n_max + 1):
        size = 1 << n
        points = np.arange(size)
        for m in range(1, n):
            images = truncate_num(round_up_num(points, n, m), n, m)
            lo, hi = best_pair_num(points, size, m)
            radius = 1 << (n - m - 1)  # estimates with |z - w| mod 2^n < radius
            wrapped = np.concatenate((images[size - radius + 1 :], images, images[: radius - 1]))
            for start in range(2 * radius - 1):
                window = wrapped[start : start + size]
                violations += int(np.count_nonzero((window != lo) & (window != hi)))
            checked += size * (2 * radius - 1)
    return checked, violations
