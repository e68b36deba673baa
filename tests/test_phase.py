"""Precision schedule, per-square energy model, phase sweep, and the
reference spectra used for the composed model."""

import collections
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import late_halter, square_energy_formula, sweep_oracle, zeros_then_one

from omegaphase import phase
from omegaphase.chaitin import omega_stage_values
from omegaphase.phase import (
    MAX_C1_NUMERATOR,
    MAX_C2_POWER_BITS,
    MAX_DELTA_EXPONENT,
    MAX_SCHEDULE_N,
    S_MIN_SCHEDULE,
    SeparationError,
    SquareEnergyModel,
    _ceil_root,
    _floor_root,
    _root_floors,
    _run_bounds,
    choose_m,
    compose_total_spectrum,
    find_s_prime,
    order_parameter,
    schedule_constraint_ok,
    schedule_scan,
    square_energy,
    sweep,
    xy_chain_spectrum,
)
from omegaphase.tm import enumerate_input, walk_inputs
from omegaphase.zoo import ZOO, zoo_machine

DEFAULT = SquareEnergyModel()
S_PRIME_DEFAULT = 6567  # from the exhaustive scan, which still derives it below
XI16_D1 = SquareEnergyModel(xi=16, poly_degree=1)

# (c1, c2) pairs of the separation-scale oracle models, as decimals
ORACLE_EXPONENTS = [
    ("3.5", "16.0"), ("3.1", "16.0"), ("3.9", "16.0"), ("3.5", "1.0"), ("3.5", "40.0"), ("3.1", "40.0"), ("3.9", "1.0")
]


def test_choose_m_examples():
    assert choose_m(2) == 1
    assert choose_m(16) == 14
    assert choose_m(81) == 78
    with pytest.raises(ValueError):
        choose_m(1)


@pytest.mark.parametrize("k", [4, 8])
def test_integer_roots_match_brute_force(k):
    expected, r = [], 0
    for value in range(300_000):
        while (r + 1) ** k <= value:
            r += 1
        expected.append(r)
    assert [_floor_root(v, k) for v in range(300_000)] == expected
    ceil = [r if r**k == v else r + 1 for v, r in enumerate(expected)]
    assert [_ceil_root(v, k) for v in range(300_000)] == ceil
    for value in (10**400, 2**4000 - 1, 2**4000, 3**1000 + 1, (10**60 + 7) ** k, (10**60 + 7) ** k - 1):
        r = _floor_root(value, k)
        assert r**k <= value < (r + 1) ** k
        c = _ceil_root(value, k)
        assert (c - 1) ** k < value <= c**k


def test_integer_roots_reject_other_degrees():
    for k in (0, 3, 6):
        with pytest.raises(ValueError):
            _floor_root(10, k)


def test_choose_m_huge_precision():
    n = 10**400
    m = choose_m(n)
    assert m == n - _ceil_root(n, 4) and m == n - 10**100


def test_choose_m_constraint_and_monotone_sample():
    values = [choose_m(n) for n in range(2, 2001)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for n, m in zip(range(2, 2001), values):
        assert schedule_constraint_ok(n, m)
    # diverges
    assert choose_m(10**6) > 10**5


def test_schedule_scan_memory_stays_flat():
    tracemalloc.start()
    try:
        assert schedule_scan(10**5) == (True, True)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 0.1  # a list of every m took 4.6 MB


@pytest.mark.parametrize("n_max", [1, MAX_SCHEDULE_N + 1])
def test_schedule_scan_refuses_n_max_before_any_work(monkeypatch, n_max):
    def no_work(n):
        raise AssertionError("the scan did work before checking n_max")

    monkeypatch.setattr(phase, "choose_m", no_work)
    with pytest.raises(ValueError, match="n_max"):
        schedule_scan(n_max)


def test_model_validation():
    with pytest.raises(ValueError):
        SquareEnergyModel(xi=1)
    with pytest.raises(ValueError):
        SquareEnergyModel(xi=6)
    # c1 in (3, 4), a Fraction whose numerator in lowest terms is at most 1000
    for c1 in (Fraction(9, 2), Fraction(3), Fraction(4), 3.5, Fraction(3927, 1250), Fraction(1003, 251)):
        with pytest.raises(ValueError, match="c1"):
            SquareEnergyModel(c1=c1)
    SquareEnergyModel(c1=Fraction(MAX_C1_NUMERATOR, 251), c2=Fraction(1))
    # c2 = c/d with c^a at most MAX_C2_POWER_BITS bits for c1 = a/b
    assert MAX_C2_POWER_BITS == 512 * 2
    SquareEnergyModel(c1=Fraction(512, 129), c2=Fraction(3))  # 512 * 2 bits
    for c1, c2 in [
        (Fraction(512, 129), Fraction(4)),  # 512 * 3 bits
        (Fraction(512, 129), Fraction(7, 4)),  # a small value, but 512 * 3 bits
        (Fraction(MAX_C1_NUMERATOR, 251), DEFAULT.c2),
        (DEFAULT.c1, Fraction(16 * 10**71 + 1, 10**71)),  # 7 * 240 bits
    ]:
        with pytest.raises(ValueError, match="c2"):
            SquareEnergyModel(c1=c1, c2=c2)
    # 1e5 and 1e9 would shift by millions and billions of bits per check
    for c2 in (Fraction(1, 2), 16.0, float("inf"), float("nan"), Fraction(10**5), Fraction(10**9), Fraction(10**308)):
        with pytest.raises(ValueError, match="c2"):
            SquareEnergyModel(c2=c2)
    # the largest c2 the tests use, over the full range: about 29k bits
    top_n = DEFAULT.s_max_checked - 5
    assert SquareEnergyModel(c2=Fraction(1000))._delta_exponent(top_n) <= MAX_DELTA_EXPONENT
    with pytest.raises(ValueError, match="c2"):
        SquareEnergyModel(c2=Fraction(1000), s_max_checked=1 << 22)
    # at c2 = 1 the exponent floor(n^(2/7)) first passes the cap at the
    # first n with n^2 >= 65537^7, about 2^56 (65537 is prime)
    n_cap = math.isqrt(65537**7) + 1
    SquareEnergyModel(c2=Fraction(1), s_max_checked=n_cap + 4)
    for top in (n_cap + 5, 10**400):
        with pytest.raises(ValueError, match="c2"):
            SquareEnergyModel(c2=Fraction(1), s_max_checked=top)
    with pytest.raises(ValueError):
        SquareEnergyModel(comp_upper_k=Fraction(-1))
    assert SquareEnergyModel(xi=4).C == 2


def test_delta_hat_upper_bounds_model_error():
    for s in (10, 50, 200, 1000):
        n = DEFAULT.n_of(s)
        # the float synthesis-error model (n^2 / 2) * 2^(-c2 n^(1/c1))
        exact = (n * n / 2.0) * 2.0 ** (-DEFAULT.c2 * n ** (1.0 / DEFAULT.c1))
        # delta_hat = n^2 2^-b1, as small_terms reads it from piece(s)
        delta_hat = float(Fraction(n * n, 1 << DEFAULT.piece(s)[1]))
        assert delta_hat >= exact
        assert delta_hat <= 2.0 * exact + 1e-300


# separation holds on [42, 142], the checked range, and fails at 143,
# where the non-halting interval is no longer positive
S_PRIME_42 = SquareEnergyModel(
    xi=16, poly_degree=1, c2=Fraction(5), comp_upper_k=Fraction(1, 7), s_max_checked=142
)


@pytest.mark.parametrize(
    "model",
    [
        DEFAULT,
        XI16_D1,
        # c2 = 1 separates only from side 19,815,044 on, so every side here lies below s'
        SquareEnergyModel(c1=Fraction(999, 250), c2=Fraction(1), comp_upper_k=Fraction(7, 3), s_max_checked=1 << 28),
        S_PRIME_42,
    ],
    ids=["default", "xi16_d1", "c1=999/250", "s_prime_42"],
)
def test_energy_intervals_match_their_formulas(model):
    sp = find_s_prime(model)
    # ceil(s^(1/8)) steps up after 2^8 and 2^16; on [257, 283] the s' = 42
    # model's halting interval is no longer negative
    sides = {*range(7, 40), *(round(10 ** (k / 8)) for k in range(13, 41)), 2**8 + 1, 2**16 - 1, 2**16 + 5}
    sides = sorted({*sides, *(s for s in (sp - 1, sp) if s <= 10**5)})
    assert sides[0] == 7 and sides[-1] == 10**5
    raised = set()
    for s in sides:
        for regime in ("halting", "nonhalting", "mixed"):
            lo, hi = square_energy_formula(model, s, regime, s >= sp)
            if s >= sp and (regime == "halting" and not hi < 0 or regime == "nonhalting" and not lo > 0):
                with pytest.raises(SeparationError) as err:
                    square_energy(s, regime, model)
                raised.add(str(err.value).replace(f"at s={s}", "at s"))
            else:
                got = square_energy(s, regime, model)
                assert (got.lo, got.hi) == (lo, hi), (s, regime)
    # past its checked range the s' = 42 model breaks in both regimes
    assert raised == (
        {"halting interval not negative at s", "non-halting interval not positive at s"}
        if model is S_PRIME_42 else set()
    )


def test_find_s_prime_default_frozen():
    sp = find_s_prime(DEFAULT)
    assert sp == S_PRIME_DEFAULT
    assert DEFAULT.separation_holds(sp)
    assert not DEFAULT.separation_holds(sp - 1)


def test_s_prime_monotone_in_marker_constant():
    # tripling the marker exponent constant (xi 2 -> 8, so C 1 -> 3)
    # shrinks the bonus; separation moves out of the checked range,
    # i.e. s' weakly increases (treated as infinite here)
    try:
        tripled = find_s_prime(SquareEnergyModel(xi=8))
    except SeparationError:
        tripled = float("inf")
    assert tripled >= find_s_prime(DEFAULT)


def test_find_s_prime_rejects_loose_constants():
    with pytest.raises(SeparationError):
        find_s_prime(SquareEnergyModel(comp_upper_k=Fraction(2**200), s_max_checked=4096))


def _scan_s_prime(model):
    """The oracle for find_s_prime: check every side in the range."""
    sides = range(S_MIN_SCHEDULE, model.s_max_checked + 1)
    last_bad = max((s for s in sides if not model.separation_holds(s)), default=S_MIN_SCHEDULE - 1)
    if last_bad == model.s_max_checked:
        raise SeparationError("the last side fails")
    return last_bad + 1


def _s_prime_or_error(search, model):
    try:
        return search(model)
    except SeparationError:
        return "SeparationError"


ORACLE_MODELS = {
    "default": DEFAULT,
    "k=1/7": SquareEnergyModel(comp_upper_k=Fraction(1, 7)),  # walks all 463 pieces to s' = 8
    "k=1000": SquareEnergyModel(comp_upper_k=Fraction(1000)),
    "k=1/1000,top=20000": SquareEnergyModel(comp_upper_k=Fraction(1, 1000), s_max_checked=20_000),  # s' = 7
    **{
        f"c1={c1},c2={c2},top=20000": SquareEnergyModel(c1=Fraction(c1), c2=Fraction(c2), s_max_checked=20_000)
        for c1, c2 in ORACLE_EXPONENTS[1:]
    },
    **{f"xi={xi},top=20000": SquareEnergyModel(xi=xi, s_max_checked=20_000) for xi in (4, 8)},
    "c2=1000,top=4096": SquareEnergyModel(c2=Fraction(1000), s_max_checked=4096),  # pieces of one side
    **{f"top={top}": SquareEnergyModel(s_max_checked=top) for top in (7, 4096, 6566, 6567)},
    "k=2^200,top=4096": SquareEnergyModel(comp_upper_k=Fraction(2**200), s_max_checked=4096),
    "xi=16,d=1": XI16_D1,  # s' = 65,537
    "xi=256,d=2": SquareEnergyModel(xi=256, poly_degree=2),  # s' = 72,528
    **{f"xi=2,d={d}": SquareEnergyModel(poly_degree=d) for d in (1, 2)},  # SeparationError
    # the d = 2 and 3 models, and the d = 1 model at top 500, end in a
    # falling run whose bottom side fails
    "xi=16,d=1,top=20000": SquareEnergyModel(xi=16, poly_degree=1, s_max_checked=20_000),
    "xi=256,d=2,top=20000": SquareEnergyModel(xi=256, poly_degree=2, s_max_checked=20_000),
    "xi=4096,d=3,top=20000": SquareEnergyModel(xi=4096, poly_degree=3, s_max_checked=20_000),
    "xi=16,d=1,c2=5,k=1/7,top=500": SquareEnergyModel(
        xi=16, poly_degree=1, c2=Fraction(5), comp_upper_k=Fraction(1, 7), s_max_checked=500
    ),
}


@pytest.mark.parametrize("model", ORACLE_MODELS.values(), ids=ORACLE_MODELS.keys())
def test_piece_walk_matches_exhaustive_scan(model):
    assert _s_prime_or_error(find_s_prime.__wrapped__, model) == _s_prime_or_error(_scan_s_prime, model)


def _separation_checks(monkeypatch, model):
    calls = 0
    holds = SquareEnergyModel.separation_holds

    def counted(self, s):
        nonlocal calls
        calls += 1
        return holds(self, s)

    monkeypatch.setattr(SquareEnergyModel, "separation_holds", counted)
    return find_s_prime.__wrapped__(model), calls


def test_piece_walk_checks_few_sides(monkeypatch):
    s_prime, calls = _separation_checks(monkeypatch, DEFAULT)
    assert s_prime == S_PRIME_DEFAULT
    assert calls <= 1000, calls  # the scan checks all 131,066 sides


def test_walk_checks_few_sides_with_poly_degree(monkeypatch):
    s_prime, calls = _separation_checks(monkeypatch, XI16_D1)
    assert s_prime == 65_537
    assert calls <= 1000, calls  # the scan checks all 131,066 sides


@pytest.mark.parametrize(
    "model,inside_cuts",
    [
        (SquareEnergyModel(c1=Fraction(31, 10), c2=Fraction(2), poly_degree=1, s_max_checked=1000), 1),  # at s = 766
        (SquareEnergyModel(c1=Fraction(31, 10), c2=Fraction(3), poly_degree=1, s_max_checked=1000), 1),  # at s = 47
        (SquareEnergyModel(poly_degree=2, s_max_checked=300), 0),
        (SquareEnergyModel(xi=4096, poly_degree=3, s_max_checked=300), 0),
        (SquareEnergyModel(c2=Fraction(1000), poly_degree=1, s_max_checked=300), 0),  # pieces of one side
    ],
    ids=["d=1,cut766", "d=1,cut47", "d=2", "d=3", "d=1,c2=1000"],
)
def test_runs_are_monotone(model, inside_cuts):
    # every run _run_bounds cuts is monotone in its stated direction,
    # checked on the exact ratio small/poly of each side
    def ratio(s):
        g, b1, _ = model.piece(s)
        n, shift = s - 5, max(g, b1)
        return Fraction((1 << (shift - g)) + n * n * (1 << (shift - b1)), s ** (2 * model.poly_degree))

    s, cuts = model.s_max_checked, 0
    while s >= S_MIN_SCHEDULE:
        lo, rising = _run_bounds(model, s)
        values = [ratio(x) for x in range(lo, s + 1)]
        pairs = list(zip(values, values[1:]))
        assert all(a <= b for a, b in pairs) if rising else all(a >= b for a, b in pairs), (lo, s)
        cuts += lo > S_MIN_SCHEDULE and model.piece(lo - 1) == model.piece(lo)
        s = lo - 1
    assert cuts == inside_cuts


def test_root_floors_exact():
    rng = random.Random(0)
    cases = [(0, 5, -7), (0, 5 << 80, -(1 << 90)), (1, -4, 4), (-3, 15, -6), (2, 0, 1)]
    cases += [(rng.randint(-50, 50), rng.randint(1, 60), rng.randint(-900, 900)) for _ in range(300)]
    cases += [(-(1 << 70) * 3, 5 << 70, -(3 << 64)), ((1 << 200) + 1, 7 << 150, -(1 << 300))]
    for a2, a1, a0 in cases:
        with localcontext() as ctx:
            ctx.prec = 200
            if a2 == 0:
                roots = [Decimal(-a0) / a1]
            else:
                disc = Decimal(a1 * a1 - 4 * a2 * a0)
                roots = [] if disc < 0 else sorted((-a1 + sign * disc.sqrt()) / (2 * a2) for sign in (-1, 1))
            expected = [math.floor(r) for r in roots]
        assert sorted(_root_floors(a2, a1, a0)) == expected, (a2, a1, a0)


@pytest.mark.parametrize("c1,c2", ORACLE_EXPONENTS)
def test_delta_exponent_non_decreasing(c1, c2):
    # floor(c2 n^(1/c1)) over the full range, against a brute-force
    # integer oracle: with c1 = a/b and c2 = c/d, e rises while
    # ((e + 1) d)^a <= c^a n^b, with no float guess.  The oracle never
    # steps down, so neither does the exponent: the piece walk's premise
    c1, c2 = Fraction(c1), Fraction(c2)
    model = SquareEnergyModel(c1=c1, c2=c2)
    values = [model._delta_exponent(n) for n in range(2, DEFAULT.s_max_checked - 4)]
    a, b, c, d = c1.numerator, c1.denominator, c2.numerator, c2.denominator
    expected, e = [], 0
    for n in range(2, DEFAULT.s_max_checked - 4):
        while ((e + 1) * d) ** a <= c**a * n**b:
            e += 1
        expected.append(e)
    assert values == expected


def test_delta_exponent_exact_where_the_float_fell_short():
    # 16 n^(2/7) is an integer at these n; the float exponent gave one less
    assert [DEFAULT._delta_exponent(n) for n in (2**7, 3**7, 2**14, 5**7)] == [64, 144, 256, 400]


def test_square_energy_signs():
    sp = find_s_prime(DEFAULT)
    halting = square_energy(sp, "halting", DEFAULT)
    assert halting.hi < 0
    nonhalting = square_energy(sp, "nonhalting", DEFAULT)
    assert nonhalting.lo > 0
    mixed = square_energy(sp, "mixed", DEFAULT)
    assert mixed.lo < 0 < mixed.hi  # marker active
    below = square_energy(sp - 1, "halting", DEFAULT)
    assert below.lo == 0 < below.hi  # no marker
    with pytest.raises(ValueError, match="square side must be >= 7, got 6"):
        square_energy(6, "halting", DEFAULT)
    with pytest.raises(ValueError):
        square_energy(10, "sideways", DEFAULT)


def test_marker_interval_formula():
    # the mixed lower bound is the marker's -3u alone, u = 4^-x with
    # x = C (s + ceil(s^(1/8))); the root is 4 at s = 6567 and 65536, 5 at 65537
    cases = [(DEFAULT, 6567, 6571), (DEFAULT, 65536, 65540), (DEFAULT, 65537, 65542), (XI16_D1, 65537, 4 * 65542)]
    for model, s, x in cases:
        mixed = square_energy(s, "mixed", model)
        t_sq = s ** (2 * model.poly_degree) * model.xi ** (2 * s)
        assert mixed.lo == Fraction(-3, 4**x)
        assert mixed.hi == model.comp_upper_k / t_sq - Fraction(1, 4**x)


def test_sweep_classification_omega34():
    o34 = zoo_machine("omega34")
    sp = find_s_prime(DEFAULT)
    grid = [Fraction(1, 2), Fraction(5, 8), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
    results = sweep(grid, walk_inputs(o34, sp + 1), DEFAULT)
    gapless = [r.gapless for r in results]
    assert gapless == [True, True, False, False, False]
    hit = results[0]
    assert hit.witness_scale == sp
    assert hit.first_negative_s == sp
    assert hit.energy.hi < 0
    assert hit.classification == f"gapless_evidence({sp})"
    miss = results[2]  # the exact halting probability: gapped side
    assert miss.classification == f"no_evidence({sp + 1})"
    assert miss.energy.lo > 0
    assert miss.witness_scale is None and miss.first_negative_s is None


def test_sweep_rejects_bad_budget_and_grid():
    o34 = zoo_machine("omega34")
    sp = find_s_prime(DEFAULT)
    with pytest.raises(ValueError):
        sweep([Fraction(1, 2)], walk_inputs(o34, sp - 1), DEFAULT)
    with pytest.raises(ValueError):
        sweep([Fraction(0)], walk_inputs(o34, sp), DEFAULT)
    assert sweep([], walk_inputs(o34, sp), DEFAULT) == []


def assert_sweep_matches_oracle(monkeypatch, grid, walk, model):
    """Sweep ``grid`` and check every phase's trace, side by side, against
    the Fraction oracle's regimes; returns the results and, per phase, its
    (side, regime) pairs."""
    stages = omega_stage_values(walk, model.m_of(walk.budget))
    calls, _ = record_square_energy(monkeypatch)
    results = sweep(grid, walk, model)
    computed = {id(interval): tuple(key) for *key, interval in calls}
    traces = [sweep_oracle(phi, stages, model, walk.budget) for phi in grid]
    for phi, result, want in zip(grid, results, traces):
        assert [computed[id(interval)] for _, interval in result.trace] == want, str(phi)
        assert result.gapless == (want[-1][1] == "halting"), str(phi)
    return results, traces


@pytest.mark.parametrize("phi", [Fraction(1, 3), Fraction(5, 6), Fraction(3, 40)])
def test_sweep_decides_non_dyadic_phases(monkeypatch, phi):
    # a pair that read the denominator's bit length as an exponent would sweep 1/3 as 1/2
    walk = walk_inputs(zoo_machine("omega34"), find_s_prime(DEFAULT) + 1)
    results, _ = assert_sweep_matches_oracle(monkeypatch, [Fraction(1, 2), phi], walk, DEFAULT)
    assert [r.gapless for r in results] == [True, phi < Fraction(3, 4)]


@pytest.mark.parametrize("name", ["omega34", "omega58"])
def test_sweep_locates_the_transition_off_grid(monkeypatch, name):
    # phi = omega - 1/(3 2^k) with k = m(s') + 1 .. 3: 2^m phi sits 2^(m-k)/3
    # below the integer 2^m omega, so the sides with m < k + 2 are mixed and
    # the first with m = k + 2 halts, near s' + k - m(s') + 2; omega and
    # omega + 1/(3 2^k) never halt
    sp, omega = find_s_prime(DEFAULT), ZOO[name].omega
    ks = [DEFAULT.m_of(sp) + j for j in (1, 2, 3)]
    below = [omega - Fraction(1, 3 << k) for k in ks]
    grid = [*below, omega, *(omega + Fraction(1, 3 << k) for k in ks)]
    walk = walk_inputs(zoo_machine(name), sp + 8)
    results, traces = assert_sweep_matches_oracle(monkeypatch, grid, walk, DEFAULT)
    for j, (result, trace) in enumerate(zip(results, traces[:3]), start=1):
        assert [regime for _, regime in trace] == ["mixed"] * (j + 2) + ["halting"]
        assert result.witness_scale == trace[-1][0] == sp + j + 2
    assert [r.classification for r in results[3:]] == [f"no_evidence({sp + 8})"] * 4


def test_sweep_never_misclassifies_zoo():
    sp = find_s_prime(DEFAULT)
    grid = [Fraction(k, 16) for k in range(1, 17)]
    for name, entry in ZOO.items():
        if not entry.prefix_free:
            continue
        spec = zoo_machine(name)
        for result in sweep(grid, walk_inputs(spec, sp + 1), DEFAULT):
            expected = result.phi < entry.omega
            assert result.gapless == expected, (name, str(result.phi))


def test_sweep_runs_each_input_once(tm_runs, walk_lookups):
    # config 08's sweep reads stages 1..m(s' + 1) = 6,553 from one pass,
    # looking each input up once and simulating nothing itself
    sp = find_s_prime(DEFAULT)
    walk = walk_inputs(zoo_machine("omega34"), sp + 1)
    advances = tm_runs.advances
    sweep([Fraction(k, 64) for k in range(1, 65)], walk, DEFAULT)
    assert walk_lookups == [enumerate_input(i) for i in range(1, 6554)]
    assert tm_runs.advances == advances


def record_square_energy(monkeypatch):
    """Patch sweep's square_energy to record each call as (side, regime,
    result), or as (side, regime) when it raises; returns that record and
    the real function."""
    real = phase.square_energy
    calls = []

    def recorded(s, regime, model):
        calls.append((s, regime))
        interval = real(s, regime, model)
        calls[-1] += (interval,)
        return interval

    monkeypatch.setattr(phase, "square_energy", recorded)
    return calls, real


@pytest.mark.parametrize("name, grid_bits", [("omega58", 8), ("omega34", 6)])
def test_sweep_computes_each_energy_once(monkeypatch, name, grid_bits):
    # the benchmark's omega58 sweep on the 256-grid and config 08's omega34
    # sweep on the 64-grid, each at the auto budget s' + 1
    calls, real = record_square_energy(monkeypatch)
    sp = find_s_prime(DEFAULT)
    grid = [Fraction(k, 2**grid_bits) for k in range(1, (1 << grid_bits) + 1)]
    results = sweep(grid, walk_inputs(zoo_machine(name), sp + 1), DEFAULT)
    keys = [call[:2] for call in calls]
    assert len(keys) == len(set(keys)) == 3
    computed = {id(interval): key for *key, interval in calls}
    for result in results:
        for s, interval in result.trace:
            side, regime = computed[id(interval)]  # a shared interval, not a copy
            assert side == s
            assert interval == real(s, regime, DEFAULT)


def test_sweep_takes_m_once_per_side(monkeypatch):
    real, sides = SquareEnergyModel.m_of, []

    def recorded(model, s):
        sides.append(s)
        return real(model, s)

    monkeypatch.setattr(SquareEnergyModel, "m_of", recorded)
    sp = find_s_prime(DEFAULT)
    grid = [Fraction(k, 16) for k in range(1, 17)]
    results = sweep(grid, walk_inputs(zoo_machine("omega34"), sp + 20), DEFAULT)
    assert sum(len(r.trace) for r in results) > 21  # most phases run every side
    assert sides == list(range(sp, sp + 21))


def test_sweep_raises_where_the_phases_alone_raise(monkeypatch):
    model = S_PRIME_42
    assert find_s_prime(model) == 42 and not model.separation_holds(143)
    walk = walk_inputs(zoo_machine("omega34"), 150)
    grid = [Fraction(k, 16) for k in range(1, 17)]
    calls, _ = record_square_energy(monkeypatch)
    # one phase per sweep computes every energy it reaches, none shared
    for phi in grid:
        try:
            sweep([phi], walk, model)
        except SeparationError as err:
            alone = str(err)
            break
    assert alone == "non-halting interval not positive at s=143"
    assert phi == Fraction(3, 4)  # omega34's exact halting probability
    alone_keys = [call[:2] for call in calls]
    calls.clear()
    with pytest.raises(SeparationError) as err:
        sweep(grid, walk, model)
    assert str(err.value) == alone
    # the same calls in the same order, repeats dropped, ending at the raise
    assert [call[:2] for call in calls] == list(dict.fromkeys(alone_keys))
    assert calls[-1] == (143, "nonhalting")


@pytest.mark.parametrize("name", ["omega34", "omega58"])
def test_sweep_decides_off_grid_phases_like_fractions(monkeypatch, name):
    # phases whose exponent exceeds m = 34..133 on some or all of the sides
    # 42..142, so their two best approximations differ there; the budget
    # stops at the checked range, as side 143 breaks the separation
    model, budget = S_PRIME_42, 142
    omega = ZOO[name].omega
    offsets = [Fraction(1, 2**200), Fraction(3, 2**60), Fraction(1, 2**100), Fraction(5, 2**40), Fraction(1, 2**300)]
    grid = [omega + sign * d for d in offsets for sign in (-1, 1)]
    grid += [Fraction(2**200 - 1, 2**200), Fraction(1)]  # the ceiling wraps to 0; phi = 1 reduces to 0
    results, traces = assert_sweep_matches_oracle(monkeypatch, grid, walk_inputs(zoo_machine(name), budget), model)
    for phi, result in zip(grid, results):
        if phi >= omega:
            assert not result.gapless, str(phi)
    assert {regime for trace in traces for _, regime in trace} == {"halting", "nonhalting", "mixed"}


# stage values that rise inside the swept precisions m(42..142) = 34..133:
# late_halter(99)'s jumps from 0 to 1 at stage 100, so its limit reaches
# 2^m, and zeros_then_one's gains 2^-(k+1) as each 0^k 1 is enumerated,
# reaching 63/64 at stage 65 and 127/128 at stage 129
LATE_RISERS = [late_halter(99), zeros_then_one()]
LEMMA_GRID = [
    *(Fraction(k, 64) for k in range(1, 65)),
    *(Fraction(k, 10**6) for k in random.Random(37).sample(range(1, 10**6), 12)),
    Fraction(1, 3), Fraction(5, 6), Fraction(2**200 - 1, 2**200), Fraction(1),
    Fraction(63, 64) - Fraction(1, 3 << 100),  # mixed from m = 65 while 2^-m > 1/(3 2^100)
]


@pytest.mark.parametrize("budget", [42, 100, 142])
@pytest.mark.parametrize("spec", LATE_RISERS, ids=lambda spec: spec.name)
def test_sweep_matches_the_oracle_on_rising_stages(monkeypatch, spec, budget):
    # the bisections stand on the monotone lemma of sweep's docstring: each
    # phase's trace, side by side, is the per-side Fraction oracle's
    walk = walk_inputs(spec, budget)
    results, traces = assert_sweep_matches_oracle(monkeypatch, LEMMA_GRID, walk, S_PRIME_42)
    assert len(results) == len(LEMMA_GRID)
    if budget == 142:
        assert {regime for trace in traces for _, regime in trace} == {"halting", "nonhalting", "mixed"}


def test_sweep_probes_each_phase_logarithmically(monkeypatch):
    # two bisections over the sides, sharing their probes: at most
    # 2 ceil(log2(sides + 1)) best pairs per phase, where a per-side loop
    # takes one per side it visits
    real, calls = phase.best_pair_num, collections.Counter()

    def recorded(num, den, m):
        calls[num, den] += 1
        return real(num, den, m)

    monkeypatch.setattr(phase, "best_pair_num", recorded)
    sp = find_s_prime(DEFAULT)
    grid = [Fraction(k, 64) for k in range(1, 65)] + [Fraction(1, 3), Fraction(5, 6)]
    sides = 41
    results = sweep(grid, walk_inputs(zoo_machine("omega34"), sp + sides - 1), DEFAULT)
    assert sum(len(r.trace) == sides for r in results) == 18  # the phases from 3/4 up run every side
    assert len(calls) == len(grid)
    assert max(calls.values()) <= 2 * math.ceil(math.log2(sides + 1))


def xy_dense_oracle(L):
    """Brute-force 2^L matrix for H = sum XX + YY, open chain."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    dim = 2**L
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(L - 1):
        for op in (sx, sy):
            term = np.eye(1, dtype=complex)
            for site in range(L):
                factor = op if site in (i, i + 1) else np.eye(2, dtype=complex)
                term = np.kron(term, factor)
            ham += term
    return ham


def test_xy_matches_dense_oracle():
    for L in (2, 3, 4, 6):
        spectrum = xy_chain_spectrum(L)
        dense = np.linalg.eigvalsh(xy_dense_oracle(L))
        free = spectrum.many_body()
        assert len(free) == 2**L
        assert np.max(np.abs(np.sort(dense) - free)) < 1e-9


def test_xy_gap_decay():
    gaps = [xy_chain_spectrum(L).gap for L in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1
    # ~1/L decay: L*gap stays in a narrow band
    products = [L * g for L, g in zip((4, 8, 16, 32, 64), gaps)]
    assert max(products) / min(products) < 1.5


def test_xy_low_levels_match_full():
    spec = xy_chain_spectrum(8)
    assert np.allclose(spec.many_body(max_levels=12), spec.many_body()[:12])
    with pytest.raises(ValueError):
        xy_chain_spectrum(1)


def test_xy_low_levels_beyond_full_materialisation():
    spec = xy_chain_spectrum(32)
    low = spec.many_body(max_levels=4)
    assert abs(low[0] - spec.ground_energy) < 1e-12
    assert abs(low[1] - (spec.ground_energy + spec.gap)) < 1e-12
    assert all(a <= b + 1e-12 for a, b in zip(low, low[1:]))
    with pytest.raises(ValueError):
        spec.many_body()  # 2^32 levels will not be materialised


def test_compose_gap_one_branch():
    # non-negative coupled sector: ground is the trivial product state,
    # spectral gap exactly 1 regardless of beta
    for beta in (Fraction(1, 7), Fraction(1), Fraction(5)):
        composed = compose_total_spectrum(
            [Fraction(0), Fraction(2)],
            [Fraction(0), Fraction(1)],
            [Fraction(-8), Fraction(-7), Fraction(0)],
            beta,
        )
        assert composed.ground_origin == "trivial"
        assert composed.lambda0 == -8 and composed.gap == 1


def test_compose_coupled_branch_and_crossover():
    uu = [Fraction(-1), Fraction(1)]
    dense = [Fraction(0), Fraction(1, 2)]
    trivial = [Fraction(-4), Fraction(-3)]
    # crossover exactly at beta = 4: below it the trivial sector wins
    below = compose_total_spectrum(uu, dense, trivial, Fraction(4) - Fraction(1, 100))
    above = compose_total_spectrum(uu, dense, trivial, Fraction(4) + Fraction(1, 100))
    assert below.ground_origin == "trivial"
    assert above.ground_origin == "uu_dense"
    boundary = compose_total_spectrum(uu, dense, trivial, Fraction(4))
    assert boundary.ground_origin == "trivial"  # ties stay trivial
    assert above.lambda0 == (Fraction(4) + Fraction(1, 100)) * Fraction(-1)


def test_compose_tags_and_validation():
    composed = compose_total_spectrum([0.0], [1.0], [5.0], 2.0)
    assert composed.entries == ((2.0, "uu_dense"), (5.0, "trivial"))
    with pytest.raises(ValueError):
        compose_total_spectrum([0.0], [1.0], [5.0], 0.0)
    with pytest.raises(ValueError):
        compose_total_spectrum([], [1.0], [5.0], 1.0)


def test_order_parameter():
    assert order_parameter(True) == 0
    assert order_parameter(False) == 1
