"""Exact simulation of the n-bit phase-estimation output distribution,
its tail bound, the round-then-truncate success probability, and the
exhaustive scans that check both bounds and the rounding lemma.

Phases are exact rationals (``Fraction``); the only floating point is the
final sine evaluation, so every window and grid comparison below is
decided exactly.  All probability claims are computed by exhaustive
summation over the 2^n outcomes, never by sampling.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PhaseDistribution:
    """The 2^n-outcome distribution of n-bit phase estimation on phi."""

    n: int
    phi: Fraction
    probabilities: np.ndarray = field(repr=False)
    exact: bool

    def __post_init__(self) -> None:
        self.probabilities.setflags(write=False)


def qpe_distribution(phi: Fraction, n: int) -> PhaseDistribution:
    """Exact output distribution of n-bit phase estimation on the rational
    phase ``phi`` in [0, 1).

    A phase on the 2^n grid gives unit mass on its own outcome; otherwise
    Pr[z] = sin^2(pi 2^n delta(z)) / (2^(2n) sin^2(pi delta(z))) with
    delta(z) the mod-1 deviation reduced to |delta| <= 1/2, normalised.
    2^n delta(z) = t + a with a = frac(2^n phi) and the signed offset
    t = floor(2^n phi) - z (mod 2^n) in [-2^(n-1), 2^(n-1) - 1].  The
    amplitudes are built in place over t in ascending order; z runs down
    that array cyclically from index b0, the index of t(0), so one copy
    reads them out in z order, and that row is squared and normalised in
    place.
    """
    if not 1 <= n <= MAX_PRECISION_BITS:
        raise ValueError(f"precision n must be in [1, {MAX_PRECISION_BITS}], got {n}")
    if not 0 <= phi < 1:
        raise ValueError(f"phase must lie in [0, 1), got {phi}")
    size = 1 << n
    scaled = phi * size
    if scaled.denominator == 1:
        probs = np.zeros(size)
        probs[int(scaled) % size] = 1.0
        return PhaseDistribution(n, phi, probs, exact=True)
    base = math.floor(scaled)
    af = float(scaled - base)
    half = size >> 1
    x = np.arange(-half, half, dtype=np.float64)
    x += af
    x *= math.pi
    x /= size
    np.sin(x, out=x)
    x *= size
    # numerator sin(pi * 2^n * delta) = sin(pi * a) for every outcome
    np.divide(np.sin(math.pi * af), x, out=x)
    b0 = (base + half) % size
    probs = np.concatenate((x[b0::-1], x[:b0:-1]))
    probs *= probs
    probs /= probs.sum()
    return PhaseDistribution(n, phi, probs, exact=False)


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
    lo, rem = divmod(num << m, den)  # one target when 2^m phi is an integer
    success = _arc_sum(probs, lo * w - h, (2 if rem else 1) * w)
    return tail, success


def bound_scan(phis: list[Fraction], n_max: int) -> list[tuple[int, float, float, int]]:
    """Check the tail and success bounds for every phase, every n in
    [2, n_max] and every m < n.

    Returns one row (n, max tail / bound, min success margin, violations)
    per n, where the bound is 2^-(n-m), the margin is success - (1 - bound)
    and a violation is a tail above or a success below its bound.  One
    distribution per (phi, n) serves every m.  ``n_max`` must lie in
    [2, MAX_PRECISION_BITS]; it is checked before any work.
    """
    if not phis:
        raise ValueError("empty scan: no phases")
    if not 2 <= n_max <= MAX_PRECISION_BITS:
        raise ValueError(f"n_max must be in [2, {MAX_PRECISION_BITS}], got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        worst_tail = 0.0
        worst_margin = 1.0
        violations = 0
        for phi in phis:
            dist = qpe_distribution(phi, n)
            for m in range(1, n):
                tail, success = tail_and_success(dist, m)
                bound = 2.0 ** -(n - m)
                worst_tail = max(worst_tail, tail / bound)
                worst_margin = min(worst_margin, success - (1.0 - bound))
                if tail > bound or success < 1.0 - bound:
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
            lo, hi = best_pair_num(points, n, m)
            radius = 1 << (n - m - 1)  # estimates with |z - w| mod 2^n < radius
            wrapped = np.concatenate((images[size - radius + 1 :], images, images[: radius - 1]))
            for start in range(2 * radius - 1):
                window = wrapped[start : start + size]
                violations += int(np.count_nonzero((window != lo) & (window != hi)))
            checked += size * (2 * radius - 1)
    return checked, violations
