"""Acceptance criteria: the exit checklist for this build.

One test per criterion, each pinned to its stated tolerance and runtime
budget, each printing a single PASS line (run with ``pytest -s`` to see
them).  Thermodynamic-limit claims are out of reach at any finite size;
these combine exact small-instance oracles with exhaustive property
grids instead.
"""

import math
import time
from fractions import Fraction

import numpy as np

from omegaphase import clock, phase, qpe
from omegaphase.calibration import GAP_RATIO_BAND, K0_SCALED_BAND
from omegaphase.chaitin import omega_approx, witness_w
from omegaphase.tm import walk_inputs
from omegaphase.dyadic import truncate
from omegaphase.zoo import ZOO, zoo_machine

RNG = np.random.default_rng(271828)
PREFIX_FREE = [name for name, e in ZOO.items() if e.prefix_free]
DEFAULT_MODEL = phase.SquareEnergyModel()


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_closed_form_spectra():
    started = time.time()
    worst = 0.0
    on, off = np.eye(1), np.zeros((1, 1))
    for T in range(1, 201):
        for p_first, p_last, tag in ((on, off, 2), (off, on, 3), (on, on, 4)):
            dense = np.linalg.eigvalsh(clock.expand_band(clock.assemble(T, p_first, p_last)))[0]
            worst = max(worst, abs(dense - clock.case_eigenvalue(tag, T)))
    elapsed = time.time() - started
    assert worst <= 1e-10, worst
    assert elapsed < 30.0, elapsed
    _report(1, f"closed-form spectra (max err {worst:.2e}, {elapsed:.1f}s)")


GRID_T = list(range(2, 65))
GRID_MU = [round(0.1 * k, 1) for k in range(1, 10)]


def _gap_law_rows():
    if not hasattr(_gap_law_rows, "cache"):
        _gap_law_rows.cache = clock.gap_law_grid(GRID_T, GRID_MU)
    return _gap_law_rows.cache


def test_criterion_02_impurity_walk_exactness():
    started = time.time()
    rows = _gap_law_rows()
    worst = 0.0
    for row in rows:
        assert row["root_count"] == 2 * row["T"] + 3, row
        worst = max(worst, abs(row["lambda0_root"] - row["lambda0_dense"]))
    elapsed = time.time() - started
    assert worst <= 1e-9, worst
    assert elapsed < 120.0, elapsed
    _report(2, f"impurity-walk exactness (max err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_gap_law_band():
    rows = _gap_law_rows()
    lo, hi = GAP_RATIO_BAND
    klo, khi = K0_SCALED_BAND
    for row in rows:
        ratio = row["lambda0_dense"] * row["T"] ** 2 / (1.0 - row["epsilon"])
        assert lo <= ratio <= hi, row
        assert klo <= row["k0_scaled"] <= khi, row
        # the upper-bound law with the frozen constant
        assert row["lambda0_dense"] <= hi * (1.0 - row["epsilon"]) / row["T"] ** 2
    _report(3, f"gap law within frozen band [{lo}, {hi}]")


QPE_GRID = [Fraction(k, 257) for k in range(1, 257)]
QPE_WRAP_EXTRAS = [
    Fraction(2**14 - 1, 2**14) + Fraction(1, 2**20),
    Fraction(2**10 - 1, 2**10) + Fraction(1, 2**16),
    Fraction(1, 2**20),
]
N_MAX = 14


def _qpe_bounds():
    if not hasattr(_qpe_bounds, "cache"):
        _qpe_bounds.cache = qpe.bound_scan(QPE_GRID + QPE_WRAP_EXTRAS, N_MAX)
    return _qpe_bounds.cache


QPE_POINTS = len(QPE_GRID + QPE_WRAP_EXTRAS) * sum(n - 1 for n in range(2, N_MAX + 1))


def test_criterion_04_qpe_tail_bound():
    started = time.time()
    # the bound is a power of two, so tail / bound <= 1 is exactly tail <= bound
    for n, worst_tail, _, _ in _qpe_bounds():
        assert worst_tail <= 1.0, n
    # the two best outcomes jointly carry at least 8/pi^2
    mass_floor = 8.0 / math.pi**2 - 1e-9
    for phi in QPE_GRID + QPE_WRAP_EXTRAS:
        for n in range(2, N_MAX + 1):
            dist = qpe.qpe_distribution(phi, n)
            if not dist.exact:
                target = float(phi) * 2**n
                lo = math.floor(target) % 2**n
                hi = math.ceil(target) % 2**n
                assert dist.probabilities[lo] + dist.probabilities[hi] >= mass_floor
    elapsed = time.time() - started
    assert elapsed < 300.0, elapsed
    _report(4, f"tail bound, {QPE_POINTS} grid points, zero violations ({elapsed:.1f}s)")


def test_criterion_05_qpe_rounding_success_bound():
    # an IEEE subtraction keeps its sign: margin >= 0 is exactly success >= 1 - bound
    for n, _, worst_margin, _ in _qpe_bounds():
        assert worst_margin >= 0.0, n
    _report(5, f"rounding success bound, {QPE_POINTS} grid points, zero violations")


def test_criterion_06_rounding_lemma_exhaustive():
    checked, violations = qpe.rounding_lemma_scan(12)
    assert violations == 0
    _report(6, f"rounding lemma exhaustive to 12 bits ({checked} pairs)")


def test_criterion_07_monotone_and_limit():
    for name in PREFIX_FREE:
        entry = ZOO[name]
        horizon = entry.settle_budget + 25
        walk = walk_inputs(zoo_machine(name), horizon)
        values = [omega_approx(walk, s).value for s in range(horizon + 1)]
        assert all(a <= b for a, b in zip(values, values[1:])), name
        assert all(values[s] == entry.omega for s in range(entry.settle_budget, horizon + 1))
        assert all(values[s] < entry.omega or entry.omega == Fraction(0) for s in range(entry.settle_budget))
        stages = omega_approx(walk, horizon).stage_values
        diagonal = [truncate(v, s) for s, v in enumerate(stages, start=1)]
        settle = max(entry.settle_budget, entry.omega.denominator.bit_length() - 1)
        for s in range(settle, horizon):
            assert diagonal[s] == truncate(entry.omega, s + 1) == entry.omega
    _report(7, "staged values monotone, settle at exact omega, diagonal stabilises")


def test_criterion_08_witness_and_sweep_transition():
    model = DEFAULT_MODEL
    s_prime = phase.find_s_prime(model)
    for name in PREFIX_FREE:
        entry = ZOO[name]
        budget = entry.settle_budget + 10
        walk = walk_inputs(zoo_machine(name), budget)
        for k in range(0, 64):
            phi = Fraction(k, 64)
            outcome = witness_w(walk, phi, budget)
            assert (outcome is not None) == (phi < entry.omega), (name, str(phi))
        grid = [Fraction(k, 64) for k in range(1, 65)]
        for result in phase.sweep(grid, walk_inputs(zoo_machine(name), s_prime + 1), model):
            below = result.phi < entry.omega
            assert result.gapless == below, (name, str(result.phi))
            if result.phi == entry.omega:
                assert not result.gapless  # boundary belongs to the gapped side
    _report(8, "halting witness and sweep flip exactly at the exact omega")


def test_criterion_09_jordan_reconstruction():
    case_counts, worst_recon, worst_eps = clock.jordan_scan(8, 60, RNG)
    assert worst_recon <= 1e-9, worst_recon
    assert worst_eps <= 1e-9, worst_eps
    assert all(case_counts[k] > 0 for k in range(1, 6)), case_counts
    _report(9, f"jordan blocks reconstruct (err {worst_recon:.2e}), case-5 eps=1-mu")


def test_criterion_10_xy_oracle_and_gap_decay():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    worst = 0.0
    for L in range(2, 9):
        dim = 2**L
        dense = np.zeros((dim, dim), dtype=complex)
        for i in range(L - 1):
            for op in (sx, sy):
                term = np.eye(1, dtype=complex)
                for site in range(L):
                    factor = op if site in (i, i + 1) else np.eye(2, dtype=complex)
                    term = np.kron(term, factor)
                dense += term
        oracle = np.linalg.eigvalsh(dense)
        free = phase.xy_chain_spectrum(L).many_body()
        worst = max(worst, float(np.max(np.abs(oracle - free))))
    assert worst <= 1e-9, worst
    gaps = [phase.xy_chain_spectrum(L).gap for L in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1
    _report(10, f"free fermions match dense to {worst:.2e}; gap decays {gaps[-1]:.3f}")


def test_criterion_11_spectrum_composition():
    # random Hermitian block model, assembled explicitly
    def random_hermitian(d):
        a = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        return (a + a.conj().T) / 2

    beta = 0.7
    h_uu = random_hermitian(4)
    h_dense = random_hermitian(4)
    h_trivial = random_hermitian(16)
    assembled = np.zeros((32, 32), dtype=complex)
    assembled[:16, :16] = beta * (
        np.kron(h_uu, np.eye(4)) + np.kron(np.eye(4), h_dense)
    )
    assembled[16:, 16:] = h_trivial
    oracle = np.linalg.eigvalsh(assembled)
    composed = phase.compose_total_spectrum(
        list(np.linalg.eigvalsh(h_uu)),
        list(np.linalg.eigvalsh(h_dense)),
        list(np.linalg.eigvalsh(h_trivial)),
        beta,
    )
    values = np.array([e for e, _ in composed.entries])
    assert np.max(np.abs(np.sort(values) - oracle)) <= 1e-9

    # non-negative coupled sector: trivial ground state, gap exactly 1
    for beta in (Fraction(1, 9), Fraction(3)):
        exact = phase.compose_total_spectrum(
            [Fraction(0), Fraction(1), Fraction(7)],
            [Fraction(0), Fraction(2)],
            [Fraction(-6), Fraction(-5), Fraction(0)],
            beta,
        )
        assert exact.ground_origin == "trivial"
        assert exact.lambda0 == -6 and exact.gap == 1
    _report(11, "composition matches assembled blocks; gap-of-1 branch exact")


def test_criterion_12_schedule_and_separation():
    constraint_ok, monotone = phase.schedule_scan(10_000)
    assert constraint_ok and monotone
    s_prime = phase.find_s_prime(DEFAULT_MODEL)
    assert s_prime == 6567  # frozen; the loop below checks every side above it
    for s in range(s_prime, DEFAULT_MODEL.s_max_checked + 1):
        assert DEFAULT_MODEL.separation_holds(s), s
    _report(12, f"schedule valid to n=10^4; separation from s'={s_prime} through {DEFAULT_MODEL.s_max_checked}")


def halting_penalty_bounds(alpha: float, eta: float) -> tuple[float, float]:
    """The paper's closed-form sandwich on the final output penalty of the
    wrapped computation, from the initialisation overlap alpha and the
    halting probability eta."""
    lower = 1.0 - (1.0 + alpha * math.sqrt(eta)) ** 2 / 4.0
    upper = 0.75 * abs(alpha * math.sqrt(1.0 - eta) + math.sqrt(1.0 - alpha * alpha)) ** 2
    return lower, upper


def test_halting_penalty_sandwich_examples_and_order():
    assert halting_penalty_bounds(1, 1) == (0.0, 0.0)
    lo, up = halting_penalty_bounds(1, 0)
    assert abs(lo - 0.75) < 1e-15 and abs(up - 0.75) < 1e-15
    lo, up = halting_penalty_bounds(0, 0.37)
    assert abs(lo - 0.75) < 1e-15 and abs(up - 0.75) < 1e-15
    grid = np.linspace(0, 1, 41)
    for alpha in grid:
        for eta in grid:
            lo, up = halting_penalty_bounds(alpha, eta)
            assert lo <= up + 1e-12
