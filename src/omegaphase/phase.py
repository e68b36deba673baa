"""Per-square energy model and the finite-budget phase classification.

The model instantiates the asymptotic energy bounds with concrete
constants: a square of side s hosts a T(s)-step computation whose
ground energy is positive unless the finite-precision witness halts,
plus a marker bonus of magnitude 4^-(C(s + ceil(s^(1/8)))).  Everything
is exact rational arithmetic.  The duration T(s) = s^d * xi^s enters
every bound only through xi^(2s) = 2^(2Cs), so the separation predicate
and the energy bounds are all built from a few small integers of the
side (SquareEnergyModel.small_terms): checking a side for separation is
cheap, and each energy bound, astronomically small as it is, takes one
division by xi^(2s) at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .calibration import COMP_UPPER_K
from .chaitin import omega_stage_values, wprime_halts
from .dyadic import best_pair_num
from .errors import SeparationError
from .tm import InputWalk

__all__ = [
    "SquareEnergyModel",
    "EnergyInterval",
    "SweepResult",
    "SeparationError",
    "choose_m",
    "schedule_constraint_ok",
    "schedule_scan",
    "square_energy",
    "find_s_prime",
    "sweep",
    "XYChainSpectrum",
    "xy_chain_spectrum",
    "ComposedSpectrum",
    "compose_total_spectrum",
    "order_parameter",
]

S_MIN_SCHEDULE = 7  # smallest square with a precision schedule (n = s - 5 >= 2)
MAX_SCHEDULE_N = 10**6  # schedule_scan's largest n_max: it calls choose_m once per n
# Largest synthesis exponent a model may reach over its checked range:
# separation_holds shifts integers by about that many bits per side.
MAX_DELTA_EXPONENT = 1 << 16
MAX_C1_NUMERATOR = 1000  # each synthesis exponent raises integers to c1's numerator
# Largest c^a, in bits, for c2 = c/d and c1 = a/b (d^a is no larger, as
# c2 >= 1): every synthesis exponent builds (e d)^a and c^a n^b, so the
# walk's time grows with it.  The slowest model found within this bound
# (c1 = 85/22, c2 = 3090) takes about 2.3 s in find_s_prime on a shared
# 2-vCPU host, where the default c1 = 7/2 at c2 = 2260 takes 1.5 s.
MAX_C2_POWER_BITS = 1024
REGIMES = ("halting", "nonhalting", "mixed")


def _floor_root(value: int, k: int) -> int:
    """Largest r with r**k <= value (value >= 0, k a power of two).

    Nested integer square roots: floor(sqrt(floor(x))) = floor(sqrt(x)),
    so the result is exact at any size, with no float rounding.
    """
    if k < 1 or k & (k - 1):
        raise ValueError(f"root degree must be a power of two, got {k}")
    r = value
    while k > 1:
        r = math.isqrt(r)
        k >>= 1
    return r


def _ceil_root(value: int, k: int) -> int:
    r = _floor_root(value, k)
    return r if r**k == value else r + 1


def choose_m(n: int) -> int:
    """Rounding precision for an n-bit estimate: max(1, floor(n - n^(1/4))).

    Integer-exact (no float fourth roots), non-decreasing in n, diverges
    with n, and always leaves slack 2*log2(n) under the schedule bound
    n - (n^(1/4) - 2 log2 n).
    """
    if n < 2:
        raise ValueError(f"precision n must be >= 2, got {n}")
    return max(1, n - _ceil_root(n, 4))


def schedule_constraint_ok(n: int, m: int) -> bool:
    return m < n - (n ** 0.25 - 2.0 * math.log2(n))


def schedule_scan(n_max: int) -> tuple[bool, bool]:
    """Whether m = choose_m(n) meets the schedule constraint for every n
    in [2, n_max], and whether it is non-decreasing there.

    One pass over n that keeps only the previous m, so memory stays
    flat.  ``n_max`` must lie in [2, MAX_SCHEDULE_N]; it is checked
    before any work.
    """
    if not 2 <= n_max <= MAX_SCHEDULE_N:
        raise ValueError(f"n_max must be in [2, {MAX_SCHEDULE_N}], got {n_max}")
    constraint_ok = monotone = True
    previous = 1  # choose_m(n) >= 1
    for n in range(2, n_max + 1):
        m = choose_m(n)
        constraint_ok = constraint_ok and schedule_constraint_ok(n, m)
        monotone = monotone and previous <= m
        previous = m
    return constraint_ok, monotone


@dataclass(frozen=True)
class SquareEnergyModel:
    """Concrete constants for the per-square energy bounds.

    xi is the duration base (a power of two, so C = log2(xi) is the
    integer marker constant); c1, c2 parameterise the gate-synthesis
    error; comp_upper_k is the frozen envelope constant bounding the
    penalised-walk ground energy from above; T(s) = s^poly_degree * xi^s.
    """

    xi: int = 2
    c1: Fraction = Fraction(7, 2)
    c2: Fraction = Fraction(16)
    comp_upper_k: Fraction = COMP_UPPER_K
    poly_degree: int = 0
    s_max_checked: int = 131_072

    def __post_init__(self) -> None:
        if self.xi < 2 or self.xi & (self.xi - 1):
            raise ValueError(
                f"xi must be a power of two >= 2 (C = log2 xi breaks otherwise), got {self.xi}"
            )
        if not isinstance(self.c1, Fraction) or not 3 < self.c1 < 4 or self.c1.numerator > MAX_C1_NUMERATOR:
            raise ValueError(f"c1 must be a Fraction in (3, 4) with numerator <= {MAX_C1_NUMERATOR}, got {self.c1!r}")
        if not isinstance(self.c2, Fraction) or not 1 <= self.c2 <= MAX_DELTA_EXPONENT:
            raise ValueError(f"c2 must be a Fraction in [1, {MAX_DELTA_EXPONENT}], got {self.c2!r}")
        if self.c1.numerator * self.c2.numerator.bit_length() > MAX_C2_POWER_BITS:
            raise ValueError(
                f"c2={self.c2} raised to c1's numerator {self.c1.numerator} exceeds "
                f"{MAX_C2_POWER_BITS} bits: give c2 a shorter numerator or c1 a smaller one"
            )
        if self.poly_degree < 0:
            raise ValueError("poly_degree must be >= 0")
        if self.s_max_checked < S_MIN_SCHEDULE:
            raise ValueError("s_max_checked too small to ever separate")
        # _delta_exponent's terms: a, b, c^a, d for c1 = a/b and c2 = c/d, and its guess's c2, 1/c1
        a, b, d = self.c1.numerator, self.c1.denominator, self.c2.denominator
        c_a = self.c2.numerator**a
        object.__setattr__(self, "_root_terms", (a, b, c_a, d, float(self.c2), 1 / float(self.c1)))
        if ((MAX_DELTA_EXPONENT + 1) * d) ** a <= c_a * (self.s_max_checked - 5) ** b:
            raise ValueError(
                f"c2={self.c2} puts the synthesis exponent above {MAX_DELTA_EXPONENT} bits "
                f"at s_max_checked={self.s_max_checked}"
            )
        if not isinstance(self.comp_upper_k, Fraction) or self.comp_upper_k <= 0:
            raise ValueError("comp_upper_k must be a positive Fraction")

    def _delta_exponent(self, n: int) -> int:
        """floor(c2 n^(1/c1)), the largest e with (e d)^a <= c^a n^b, from a
        float first guess.  Being exact, it never steps down as n rises."""
        a, b, c_a, d, c2, inv_c1 = self._root_terms
        bound = c_a * n**b
        e = math.floor(c2 * n**inv_c1)
        while (e * d) ** a > bound:
            e -= 1
        while ((e + 1) * d) ** a <= bound:
            e += 1
        return e

    @property
    def C(self) -> int:
        return self.xi.bit_length() - 1

    def n_of(self, s: int) -> int:
        if s < S_MIN_SCHEDULE:
            raise ValueError(f"square side must be >= {S_MIN_SCHEDULE}, got {s}")
        return s - 5

    def m_of(self, s: int) -> int:
        return choose_m(self.n_of(s))

    def piece(self, s: int) -> tuple[int, int, int]:
        """What small_terms reads of side s besides n = s - 5: the
        tail exponent g = n - m(n), the synthesis exponent b1 and
        ceil(s^(1/8)).  Each is non-decreasing in s, so the sides sharing
        one triple form an interval, a piece."""
        n = s - 5
        return n - choose_m(n), self._delta_exponent(n) + 1, _ceil_root(s, 8)

    def small_terms(self, s: int) -> tuple[int, int, int, int]:
        """The small integers every energy bound of side s is built from,
        xi^(2s) = 2^(2Cs) cancelled: shift = max(g, b1), small =
        2^shift (tail + delta), 2Ct = 2C ceil(s^(1/8)) and poly = s^(2d).

        The tail bound is 2^-g and the synthesis error bound delta =
        n^2 2^-b1 (flooring the exponent only raises it), read from
        piece(s).  So T^2 = poly 2^(2Cs), and the marker unit
        4^-(C (s + ceil(s^(1/8)))) is 2^-(2Ct) 2^-(2Cs).
        """
        n = self.n_of(s)
        g, b1, root8 = self.piece(s)
        shift = max(g, b1)
        small = (1 << (shift - g)) + n * n * (1 << (shift - b1))
        return shift, small, 2 * self.C * root8, s ** (2 * self.poly_degree)

    def separation_holds(self, s: int) -> bool:
        """Exact check that the marker bonus sits strictly between the
        halting and non-halting computation energies at side s.

        It compares the small integers of small_terms(s): no astronomical
        numbers are materialised.
        """
        if s < S_MIN_SCHEDULE:
            return False
        shift, small, two_ct, poly = self.small_terms(s)
        p, q = self.comp_upper_k.numerator, self.comp_upper_k.denominator
        # upper(halting comp) < -upper(marker):
        #   K*(tail+delta)/T^2 < 4^-X  <=>  p*small*2^(2Ct) < q*s^(2d)*2^shift
        cond1 = p * small << two_ct < q * poly << shift
        # -lower(marker) < lower(nonhalting comp):
        #   3*4^-X < (1-tail-delta)/T^2  <=>  3*s^(2d)*2^shift < (2^shift-small)*2^(2Ct)
        cond2 = 3 * poly << shift < ((1 << shift) - small) << two_ct
        return bool(cond1 and cond2)


@lru_cache(maxsize=64)
def find_s_prime(model: SquareEnergyModel) -> int:
    """Smallest s such that the regime separation holds for every square
    side from s up to the model's checked range.

    Raises SeparationError when the range ends in a violation (constants
    too loose to ever separate).

    The sides are walked a monotone run at a time, from s_max_checked
    down, and the walk is exact.  Inside a piece (see
    SquareEnergyModel.piece) shift, 2Ct and C are fixed, small = A + B n^2
    with A = 2^(shift-g), B = 2^(shift-b1), and poly = (n+5)^(2d) rises.
    cond2 compares a rising left side with a falling right side, so it
    holds on a prefix of the piece.  cond1 reads small/poly < const, and
    the sign of (small/poly)' is the sign of the integer quadratic
    (1-d) B n^2 + 5B n - d A, whose roots cut the piece into at most three
    runs on which small/poly is monotone (_run_bounds).  On a rising run
    the sides where separation holds come first, so if the top side holds
    the whole run does.  On a falling run they form an interval ending at
    the top: if the bottom side holds too the whole run does, and
    otherwise a gallop-and-bisect finds the interval's first side.  The
    first failing side met is the last failing side of the range.  For
    d = 0 each piece is one rising run, so the walk checks one side per
    piece.
    """
    holds = model.separation_holds
    s = model.s_max_checked
    while s >= S_MIN_SCHEDULE and holds(s):
        lo, rising = _run_bounds(model, s)
        if not rising and lo < s and not holds(lo):
            return _after_last_failure(model, _run_start(holds, s, lo + 1) - 1)
        s = lo - 1
    return _after_last_failure(model, s)


def _run_bounds(model: SquareEnergyModel, s: int) -> tuple[int, bool]:
    """First side of the run of s's piece that ends at s and on which
    small/poly is monotone, and whether it rises there.

    The runs are cut after floor(r) for each real root r of
    Q(n) = (1-d) B n^2 + 5B n - d A, the numerator of (small/poly)' up to
    a positive factor.  No root lies in [lo, s), so Q(lo) is nonzero and
    gives the direction whenever the run has more than one side.
    """
    key = model.piece(s)
    g, b1, _ = key
    shift, d = max(g, b1), model.poly_degree
    q2, q1, q0 = (1 - d) << (shift - b1), 5 << (shift - b1), -d << (shift - g)
    lo = _run_start(lambda x: model.piece(x) == key, s, S_MIN_SCHEDULE)
    for root in _root_floors(q2, q1, q0):
        if root + 5 < s:
            lo = max(lo, root + 6)
    n = lo - 5
    return lo, q2 * n * n + q1 * n + q0 >= 0


def _root_floors(a2: int, a1: int, a0: int) -> list[int]:
    """floor(r) for each real root r of a2 n^2 + a1 n + a0 (a1 > 0 when
    a2 = 0), exactly: floor(x / k) = floor(floor(x) / k) for k > 0."""
    if a2 == 0:
        return [-a0 // a1]
    if a2 < 0:
        a2, a1, a0 = -a2, -a1, -a0
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    return [(-a1 - _ceil_root(disc, 2)) // (2 * a2), (-a1 + _floor_root(disc, 2)) // (2 * a2)]


def _run_start(inside, s: int, floor: int) -> int:
    """First side of the run of sides in [floor, s] that ends at s and on
    which inside holds (inside(s) holds, and the sides of [floor, s] where
    it holds form an interval).  Gallop down from s in doubling steps to a
    side outside the run, then bisect.  That costs about twice the log of
    the run's length, so a run of one side costs two calls, not the log
    of s."""
    hi, step = s, 1  # hi is inside the run
    while hi - step >= floor and inside(hi - step):
        hi -= step
        step *= 2
    lo = max(hi - step, floor - 1)  # outside the run, or below the range
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _after_last_failure(model: SquareEnergyModel, last_bad: int) -> int:
    if last_bad >= model.s_max_checked:
        raise SeparationError(
            f"no separation persisting to s_max_checked={model.s_max_checked}"
        )
    return last_bad + 1


@dataclass(frozen=True)
class EnergyInterval:
    """Enclosure [lo, hi] of one square's ground energy."""

    lo: Fraction
    hi: Fraction


def square_energy(s: int, regime: str, model: SquareEnergyModel) -> EnergyInterval:
    """Energy enclosure for a side-s square (s >= 7) under the given regime.

    Each bound is a small rational in units of 2^-(2Cs) = xi^-(2s), built
    from model.small_terms(s) and divided once by xi^(2s).  With K =
    comp_upper_k, the computation energy lies in [0, K (tail + delta) /
    T^2] in the halting regime, [(1 - tail - delta) / T^2, K / T^2] in
    the non-halting one and [0, K / T^2] when mixed.

    Below the separation scale the marker is positive semidefinite by
    design, so the enclosure is the bare (non-negative) computation
    interval.  At and above it, the marker adds [-3u, -u], u =
    4^-(C (s + ceil(s^(1/8)))), and the summed interval is strictly
    negative in the halting regime and strictly positive in the
    non-halting one; a straddling interval there means the model
    constants are broken and raises rather than classifying.  Both signs
    are decided on the small rationals.
    """
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    shift, small, two_ct, poly = model.small_terms(s)
    upper = model.comp_upper_k / poly
    if regime == "halting":
        lo, hi = Fraction(0), upper * Fraction(small, 1 << shift)
    elif regime == "nonhalting":
        lo, hi = Fraction((1 << shift) - small, poly << shift), upper
    else:
        lo, hi = Fraction(0), upper
    if s >= find_s_prime(model):
        unit = Fraction(1, 1 << two_ct)
        lo, hi = lo - 3 * unit, hi - unit
        if regime == "halting" and not hi < 0:
            raise SeparationError(f"halting interval not negative at s={s}")
        if regime == "nonhalting" and not lo > 0:
            raise SeparationError(f"non-halting interval not positive at s={s}")
    scale = 1 << (2 * model.C * s)
    return EnergyInterval(lo / scale, hi / scale)


@dataclass(frozen=True)
class SweepResult:
    """Classification of one grid phase under a finite square budget."""

    phi: Fraction
    gapless: bool
    witness_scale: int | None
    s_budget: int
    energy: EnergyInterval
    trace: tuple[tuple[int, EnergyInterval], ...] = field(repr=False)

    @property
    def classification(self) -> str:
        if self.gapless:
            return f"gapless_evidence({self.witness_scale})"
        return f"no_evidence({self.s_budget})"

    @property
    def first_negative_s(self) -> int | None:
        for s, interval in self.trace:
            if interval.hi < 0:
                return s
        return None


def sweep(
    phi_grid: list[Fraction],
    walk: InputWalk,
    model: SquareEnergyModel,
) -> list[SweepResult]:
    """Classify each grid phase by searching square sides s' <= s <= budget
    for finite-precision witness halting on every best approximation; the
    budget is the walk's, and the witness reads its stage values off it.

    Each phase must have a power-of-two denominator 2^e; it is reduced
    mod 1 once, to a numerator over 2^e.  At side s the witness runs at
    m = m(s), computed once per side, on the floor and the ceiling
    (mod 1) of 2^m phi, from ``dyadic.best_pair_num``; the two are one
    word when phi lies on the m-bit grid.  Both halting is the halting
    regime, neither the non-halting one, and one of the two the mixed one.

    Evidence is only ever emitted together with the reproducible witness
    trace and its strictly negative energy certificate; running out of
    budget is a value (no_evidence), not an error.  The boundary phase
    equal to a machine's exact halting probability never halts, and the
    phase 1 reduces to the all-zero word which loops by convention.

    The energy of each (side, regime) is computed once and shared by every
    phase that reaches it.  A SeparationError therefore comes from the
    first phase that reaches a broken (side, regime), as it would if each
    phase computed its own.
    """
    s_prime, s_budget = find_s_prime(model), walk.budget
    if s_budget < s_prime:
        raise ValueError(f"s_budget={s_budget} below separation scale {s_prime}")
    sides = range(s_prime, s_budget + 1)
    ms = [model.m_of(s) for s in sides] if phi_grid else []
    stage_values = omega_stage_values(walk, ms[-1]) if ms else []
    energies: dict[tuple[int, str], EnergyInterval] = {}
    results: list[SweepResult] = []
    for phi in phi_grid:
        if not 0 < phi <= 1:
            raise ValueError(f"grid phases must lie in (0, 1], got {phi}")
        e = phi.denominator.bit_length() - 1
        if phi.denominator != 1 << e:
            raise ValueError(f"grid phases need a power-of-two denominator, got {phi}")
        num = phi.numerator & ((1 << e) - 1)  # phi mod 1, over 2^e
        trace: list[tuple[int, EnergyInterval]] = []
        hit: int | None = None
        for s, m in zip(sides, ms):
            below, above = (wprime_halts(w, stage_values[m - 1], m) for w in best_pair_num(num, e, m))
            regime = "mixed" if below != above else "halting" if below else "nonhalting"
            interval = energies.get((s, regime))
            if interval is None:
                interval = energies[s, regime] = square_energy(s, regime, model)
            trace.append((s, interval))
            if regime == "halting":
                hit = s
                break
        final = trace[-1][1]
        results.append(
            SweepResult(phi, hit is not None, hit, s_budget, final, tuple(trace))
        )
    return results


# -- reference spectra --------------------------------------------------


@dataclass(frozen=True)
class XYChainSpectrum:
    """Free-fermion solution of the open isotropic XY chain.

    Convention: H = sum_i (X_i X_{i+1} + Y_i Y_{i+1}), open boundaries,
    no field; the hopping matrix has off-diagonal 2, so the modes are
    4 cos(pi j / (L+1)).  Many-body levels are subset sums of the modes.
    """

    L: int
    single_particle: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.single_particle.setflags(write=False)

    @property
    def ground_energy(self) -> float:
        return float(self.single_particle[self.single_particle < 0].sum())

    @property
    def gap(self) -> float:
        return float(np.abs(self.single_particle).min())

    def many_body(self, max_levels: int | None = None) -> np.ndarray:
        """Full sorted 2^L spectrum (L <= 16), or the lowest levels via
        a lazy smallest-excitation heap for longer chains."""
        if max_levels is None:
            if self.L > 16:
                raise ValueError("full spectrum only materialised for L <= 16")
            levels = np.zeros(1)
            for eps in self.single_particle:
                levels = np.concatenate([levels, levels + eps])
            return np.sort(levels)
        import heapq

        excitations = np.sort(np.abs(self.single_particle))
        base = self.ground_energy
        # lowest levels = base + k smallest subset sums of the excitations;
        # subsets are grown in index order so each is enumerated once
        heap: list[tuple[float, int]] = [(0.0, 0)]
        out: list[float] = []
        while heap and len(out) < max_levels:
            total, idx = heapq.heappop(heap)
            out.append(base + total)
            for j in range(idx, len(excitations)):
                heapq.heappush(heap, (total + float(excitations[j]), j + 1))
        return np.array(out[:max_levels])


def xy_chain_spectrum(L: int) -> XYChainSpectrum:
    """Diagonalise the open XY chain through its quadratic-fermion form."""
    if L < 2:
        raise ValueError(f"chain length must be >= 2, got {L}")
    hop = np.zeros((L, L))
    idx = np.arange(L - 1)
    hop[idx, idx + 1] = 2.0
    hop[idx + 1, idx] = 2.0
    modes = np.linalg.eigvalsh(hop)
    return XYChainSpectrum(L, modes)


@dataclass(frozen=True)
class ComposedSpectrum:
    """Union spectrum of the coupled (uu x dense) + trivial sectors."""

    entries: tuple[tuple[float, str], ...]
    ground_origin: str

    @property
    def lambda0(self):
        return self.entries[0][0]

    @property
    def lambda1(self):
        return self.entries[1][0]

    @property
    def gap(self):
        return self.lambda1 - self.lambda0


def compose_total_spectrum(
    uu_energies, dense_energies, trivial_energies, beta
) -> ComposedSpectrum:
    """Spectrum of the composed model: beta * (pairwise sums of the uu
    and dense sectors) union the trivial sector, each point tagged with
    its origin.

    The ground state lives in the uu x dense sector exactly when
    beta*(min uu + min dense) undercuts the trivial minimum.  Exact
    (Fraction) inputs stay exact, so crossover points can be compared
    algebraically.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not uu_energies or not dense_energies or not trivial_energies:
        raise ValueError("all three energy lists must be non-empty")
    entries = [
        (beta * (a + b), "uu_dense") for a in uu_energies for b in dense_energies
    ]
    entries += [(t, "trivial") for t in trivial_energies]
    entries.sort(key=lambda e: (e[0], e[1]))
    coupled_min = beta * (min(uu_energies) + min(dense_energies))
    origin = "uu_dense" if coupled_min < min(trivial_energies) else "trivial"
    return ComposedSpectrum(tuple(entries), origin)


def order_parameter(gapless: bool) -> int:
    """Site-averaged diagonal observable: vanishes on the gapless
    sector's ground state, equals one on the trivial product state."""
    return 0 if gapless else 1
