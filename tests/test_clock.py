"""Clock-Hamiltonian assembly, rotation, Jordan blocks, the impurity
walk, epsilon, and extremal eigenvalues with their residuals."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from omegaphase import clock
from omegaphase.clock import (
    BracketError,
    ClockSpec,
    ClockSpecParseError,
    JordanBlock,
    assemble,
    case5_spec,
    case_chain,
    case_eigenvalue,
    chain_ground_energy,
    compute_epsilon,
    expand_band,
    gap_law_grid,
    ground_energy,
    jordan_decompose,
    random_projector,
    read_clock_spec,
    reconstruct_projectors,
    root_solve_case5,
)

RNG = np.random.default_rng(20240817)

I1 = np.eye(1, dtype=complex)
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_unitary(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_spec(T, d, rng, n_in=1):
    return ClockSpec(
        T,
        d,
        tuple(random_unitary(d, rng) for _ in range(T)),
        tuple(random_projector(d, int(rng.integers(1, d)), rng) for _ in range(n_in)),
        random_projector(d, 1, rng),
    )


def direct_matrix(spec, p_in=None):
    """The dense clock matrix of ``spec``; ``p_in`` replaces the summed
    input penalty when given."""
    p_in = spec.input_penalty_total if p_in is None else p_in
    return expand_band(assemble(spec.T, p_in, spec.output_projector, spec.unitaries))


def rotated_output(spec):
    """U^H P_out U: the output penalty conjugated through the whole
    evolution, which moves the clock to the path-Laplacian frame."""
    u = spec.total_unitary
    return u.conj().T @ spec.output_projector @ u


def kernel_complement(total):
    """Projector onto the orthogonal complement of ker(total)."""
    evals, evecs = np.linalg.eigh(total)
    keep = evecs[:, evals > 1e-10]
    return keep @ keep.conj().T


def block_matrix(block, T):
    """The dense restriction of the rotated clock to one Jordan block."""
    return expand_band(assemble(T, *block.projector_pair()))


def walk_matrix(T, mu):
    """Dense form of the impurity-walk chain ``case_chain(5, T, mu)``."""
    diag, off = case_chain(5, T, mu)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def reference_hamiltonian(T, p_first, p_last, hops):
    """Block-by-block slice loop: each time step adds its hop term, then
    the two penalties land on the end blocks."""
    d = p_first.shape[0]
    dtype = np.result_type(p_first, p_last, *hops)
    ham = np.zeros(((T + 1) * d, (T + 1) * d), dtype=dtype)
    eye = np.eye(d, dtype=dtype)

    def blk(t):
        return slice(t * d, (t + 1) * d)

    for t in range(T):
        u = hops[t]
        ham[blk(t), blk(t)] += eye
        ham[blk(t + 1), blk(t + 1)] += eye
        ham[blk(t + 1), blk(t)] += -u
        ham[blk(t), blk(t + 1)] += -u.conj().T
    ham[blk(0), blk(0)] += p_first
    ham[blk(T), blk(T)] += p_last
    return ham


def test_assembly_matches_reference_loop():
    # the band holds the upper triangle: it equals the reference loop's
    # exactly, dtype included, off the diagonal and in the diagonal's real
    # part.  The rotated penalty U^H P_out U is not exactly Hermitian in
    # most of these cases, so the reference's lower triangle (and the
    # imaginary part of its diagonal) is not the mirror of the upper one;
    # the expansion always is.  The direct and rotated forms are complex,
    # the canonical Jordan blocks stay real.  The band has one row per
    # offset up to the largest that holds a nonzero entry.
    def check(band, want, dtype):
        got = expand_band(band)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(np.triu(got, 1), np.triu(want, 1))
        assert np.array_equal(got.diagonal(), want.diagonal().real)
        assert np.array_equal(got, got.conj().T)
        rows, cols = np.nonzero(np.triu(want))
        assert band.shape[0] == (cols - rows).max() + 1
        return got

    rng = np.random.default_rng(7)
    for T in (1, 2, 5, 30):
        for d in (1, 2, 3):
            spec = ClockSpec(
                T,
                d,
                tuple(random_unitary(d, rng) for _ in range(T)),
                tuple(random_projector(d, int(rng.integers(0, d + 1)), rng) for _ in range(2)),
                random_projector(d, int(rng.integers(0, d + 1)), rng),
            )
            p_out_rotated = rotated_output(spec)
            for p_in in (spec.input_penalty_total, kernel_complement(spec.input_penalty_total)):
                want = reference_hamiltonian(T, p_in, spec.output_projector, spec.unitaries)
                check(assemble(T, p_in, spec.output_projector, spec.unitaries), want, np.complex128)
                identity = (np.eye(d, dtype=complex),) * T
                want = reference_hamiltonian(T, p_in, p_out_rotated, identity)
                check(assemble(T, p_in, p_out_rotated), want, np.complex128)
    for T in (1, 2, 5, 30, 200):
        for tag in (1, 2, 3, 4, 5):
            block = JordanBlock(tag, np.eye(2 if tag == 5 else 1), mu=0.37 if tag == 5 else None)
            small_in, small_out = block.projector_pair()
            want = reference_hamiltonian(T, small_in, small_out, (np.eye(block.basis.shape[1]),) * T)
            assert np.array_equal(check(assemble(T, small_in, small_out), want, np.float64), want)


def test_build_examples():
    spec = ClockSpec(1, 1, (I1,), (), np.zeros((1, 1), dtype=complex))
    assert np.allclose(direct_matrix(spec), [[1, -1], [-1, 1]])
    assert abs(ground_energy(spec).lambda0) < 1e-12

    spec = ClockSpec(1, 1, (I1,), (I1,), np.zeros((1, 1), dtype=complex))
    ham = direct_matrix(spec)
    assert np.allclose(ham, [[2, -1], [-1, 1]])
    assert abs(ground_energy(spec).lambda0 - (3 - math.sqrt(5)) / 2) < 1e-12


def test_build_is_hermitian_and_psd_without_penalties():
    for T, d in [(3, 2), (5, 3)]:
        spec = ClockSpec(
            T,
            d,
            tuple(random_unitary(d, RNG) for _ in range(T)),
            (),
            np.zeros((d, d), dtype=complex),
        )
        ham = direct_matrix(spec)
        assert np.allclose(ham, ham.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(ham)[0] > -1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        ClockSpec(1, 2, (np.ones((2, 2), dtype=complex),), (), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ClockSpec(1, 2, (I2,), (0.5 * I2,), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ClockSpec(2, 2, (I2,), (), np.zeros((2, 2)))  # wrong unitary count
    with pytest.raises(ValueError):
        ClockSpec(1, 2, (np.eye(3, dtype=complex),), (), np.zeros((2, 2)))


def test_spec_validation_names_first_bad_unitary():
    bad = 1.1 * I2
    wide = np.eye(3, dtype=complex)
    cases = [
        ((I2, I2, bad, I2, I2), "U_3 is not unitary"),
        ((I2, I2, bad, I2, wide), "U_3 is not unitary"),  # before a later bad shape
        ((I2, wide, bad, I2, I2), "U_2 has shape (3, 3)"),  # after an earlier one
        ((I2, I2, I2, I2, I2 + 1e-9), "U_5 is not unitary"),
    ]
    for unitaries, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            ClockSpec(5, 2, unitaries, (), np.zeros((2, 2)))
    ClockSpec(5, 2, (I2, X, I2, X, I2 + 1e-13), (), np.zeros((2, 2)))  # within UNITARY_ATOL


def test_rotated_output_penalty_identity_and_flip():
    spec = ClockSpec(2, 2, (I2, I2), (), np.diag([1.0, 0]).astype(complex))
    assert np.allclose(rotated_output(spec), np.diag([1.0, 0]))
    spec = ClockSpec(1, 2, (X,), (), np.diag([1.0, 0]).astype(complex))
    assert np.allclose(rotated_output(spec), np.diag([0, 1.0]))


def test_rotation_preserves_spectrum():
    for T, d in [(4, 2), (8, 3), (32, 2), (6, 4)]:
        spec = random_spec(T, d, RNG)
        direct = np.linalg.eigvalsh(direct_matrix(spec))
        rotated = expand_band(assemble(T, spec.input_penalty_total, rotated_output(spec)))
        assert np.max(np.abs(direct - np.linalg.eigvalsh(rotated))) < 1e-10


def test_jordan_examples():
    zero2 = np.zeros((2, 2), dtype=complex)
    assert sorted(b.case_tag for b in jordan_decompose(zero2, zero2)) == [1, 1]
    pin = np.diag([1.0, 0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    blocks = jordan_decompose(pin, plus)
    assert [b.case_tag for b in blocks] == [5]
    assert abs(blocks[0].mu - 0.5) < 1e-12
    assert sorted(b.case_tag for b in jordan_decompose(pin, pin)) == [1, 4]


def test_jordan_rejects_non_projectors():
    with pytest.raises(ValueError):
        jordan_decompose(np.diag([0.5, 0]).astype(complex), np.zeros((2, 2)))


def test_jordan_reconstruction_random():
    for trial in range(40):
        d = int(RNG.integers(2, 9))
        p = random_projector(d, int(RNG.integers(0, d + 1)), RNG)
        q = random_projector(d, int(RNG.integers(0, d + 1)), RNG)
        blocks = jordan_decompose(p, q)
        assert sum(b.basis.shape[1] for b in blocks) == d
        p2, q2 = reconstruct_projectors(blocks, d)
        assert np.max(np.abs(p2 - p)) < 1e-9
        assert np.max(np.abs(q2 - q)) < 1e-9
        basis = np.column_stack([b.basis for b in blocks])
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(d))) < 1e-10


def test_jordan_degenerate_angles_reclassified():
    # mu within 1e-10 of 0 collapses into the double-penalty case;
    # mu is the squared tilt amplitude
    d = 3
    p = np.zeros((d, d), dtype=complex)
    p[0, 0] = 1.0
    v = np.array([1.0, 3e-4, 0], dtype=complex)  # mu ~ 9e-8: genuine block
    v /= np.linalg.norm(v)
    q = np.outer(v, v.conj())
    tags = sorted(b.case_tag for b in jordan_decompose(p, q))
    assert 5 in tags
    v = np.array([1.0, 1e-6, 0], dtype=complex)  # mu ~ 1e-12: reclassified
    v /= np.linalg.norm(v)
    q = np.outer(v, v.conj())
    tags = sorted(b.case_tag for b in jordan_decompose(p, q))
    assert 5 not in tags


def test_case_eigenvalue_closed_forms():
    assert case_eigenvalue(1, 17) == 0.0
    assert abs(case_eigenvalue(2, 1) - (3 - math.sqrt(5)) / 2) < 1e-12
    assert abs(case_eigenvalue(3, 1) - (3 - math.sqrt(5)) / 2) < 1e-12
    assert abs(case_eigenvalue(4, 1) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        case_eigenvalue(5, 3)
    with pytest.raises(ValueError):
        case_eigenvalue(6, 3)


def test_block_matrices_match_closed_forms():
    for T in (1, 2, 5, 11):
        for tag in (1, 2, 3, 4):
            ham = block_matrix(JordanBlock(tag, np.eye(1)), T)
            lam = np.linalg.eigvalsh(ham)[0]
            assert abs(lam - case_eigenvalue(tag, T)) < 1e-10


def test_impurity_matrix_matches_reference_display():
    ham = walk_matrix(3, 0.5)
    xi = 0.5
    expected = np.array(
        [
            [2, -1, 0, 0, 0, 0, 0, 0],
            [-1, 2, -1, 0, 0, 0, 0, 0],
            [0, -1, 2, -1, 0, 0, 0, 0],
            [0, 0, -1, 1.5, -xi, 0, 0, 0],
            [0, 0, 0, -xi, 1.5, -1, 0, 0],
            [0, 0, 0, 0, -1, 2, -1, 0],
            [0, 0, 0, 0, 0, -1, 2, -1],
            [0, 0, 0, 0, 0, 0, -1, 1],
        ]
    )
    assert np.array_equal(ham, expected)


def test_impurity_matrix_is_case5_clock_in_disguise():
    for T, mu in [(1, 0.5), (3, 0.5), (6, 0.25), (10, 0.9)]:
        walk = np.linalg.eigvalsh(walk_matrix(T, mu))
        assembled = np.linalg.eigvalsh(direct_matrix(case5_spec(T, mu)))
        assert np.max(np.abs(walk - assembled)) < 1e-12


def test_impurity_mu_limits():
    lows = [np.linalg.eigvalsh(walk_matrix(5, mu))[0] for mu in (1e-4, 1e-2, 0.5)]
    assert 0 < lows[0] < lows[1] < lows[2]
    # at mu -> 1 the tilted pair commutes and the chain splits into two
    # singly-pinned halves, so the single-endpoint closed form is the limit
    near_one = np.linalg.eigvalsh(walk_matrix(5, 1 - 1e-10))[0]
    assert abs(near_one - case_eigenvalue(2, 5)) < 1e-6


def test_band_holds_no_negative_zeros():
    # -U^H of an identity hop is -0.0 off the diagonal, and conj makes
    # -0.0 imaginary parts; LAPACK's Householder step reads those signs,
    # so they would move the dense ground vector and its residual
    bands = [assemble(T, *JordanBlock(tag, np.eye(1)).projector_pair()) for tag in (1, 2, 3, 4)
             for T in (1, 2, 7)]
    bands += [assemble(T, *JordanBlock(5, np.eye(2), mu=mu).projector_pair())
              for T in (1, 2, 7) for mu in (0.1, 0.5)]
    for T in (1, 2, 7, 40):
        for mu in (0.1, 0.37, 0.9):
            spec = case5_spec(T, mu)
            bands.append(assemble(T, spec.input_penalty_total, spec.output_projector, spec.unitaries))
    for band in bands:
        zeros = band[band == 0]
        assert zeros.size
        assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()
        full = expand_band(band)
        for part in (full.real, full.imag):
            assert not np.signbit(part[part == 0]).any()


def test_case_chains_are_the_assembled_blocks_bit_for_bit():
    # dsterf on the chain gives the very float eigvalsh gives on the
    # assembled block, which ties case_chain to assemble
    for T in range(1, 201):
        for tag in (1, 2, 3, 4):
            diag, off = case_chain(tag, T)
            ham = block_matrix(JordanBlock(tag, np.eye(1)), T)
            assert np.array_equal(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), ham)
            assert chain_ground_energy(diag, off) == np.linalg.eigvalsh(ham)[0]


def test_impurity_chain_oracle_matches_eigvalsh_on_the_default_grid():
    t_values = list(range(2, 65))
    mu_values = [round(0.1 * k, 1) for k in range(1, 10)]
    rows = gap_law_grid(t_values, mu_values)
    assert len(rows) == 567
    for row in rows:
        want = np.linalg.eigvalsh(walk_matrix(row["T"], row["mu"]))[0]
        assert chain_ground_energy(*case_chain(5, row["T"], row["mu"])) == want
        assert row["lambda0_dense"] == want


def test_chain_ground_energy_matches_eigvalsh_on_random_chains():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        diag = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3])
        off = rng.standard_normal(n - 1)
        off[rng.random(n - 1) < 0.1] = 0.0  # split the chain here and there
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert chain_ground_energy(diag, off) == np.linalg.eigvalsh(dense)[0]


def test_chain_ground_energy_edge_cases():
    assert chain_ground_energy(np.array([0.25]), np.array([])) == 0.25
    assert chain_ground_energy([3.0, 3.0], [0.0]) == 3.0
    with pytest.raises(ValueError, match="2 entries, got shape"):
        chain_ground_energy(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="non-empty"):
        chain_ground_energy(np.array([]), np.array([]))


def test_case_chain_errors():
    with pytest.raises(ValueError, match="T must be >= 1, got 0"):
        case_chain(2, 0)
    with pytest.raises(ValueError, match="requires mu"):
        case_chain(5, 3)
    with pytest.raises(ValueError, match="strictly in"):
        case_chain(5, 3, 1.0)
    with pytest.raises(ValueError, match="1..5, got 6"):
        case_chain(6, 3)


def test_root_solver_counts_and_matches_dense():
    [roots] = root_solve_case5([(3, 0.5)])
    assert roots.count == 9
    dense = np.linalg.eigvalsh(walk_matrix(3, 0.5))
    assert abs(2 - 2 * math.cos(roots.k0) - dense[0]) < 1e-9
    assert roots.k0 < math.pi / 9
    branches = {b for _, b in reference_root_solve_case5(3, 0.5)[1]}
    assert branches == {"minus", "plus", "both"}


def test_quantisation_polynomial_roots_on_unit_circle():
    # independent check: the degree-(2T+3) factor polynomials
    # z^(2T+3) + 1 +/- sqrt(1-mu) z^(T+1) (z+1) have every root on the
    # unit circle, and the trig roots found on (0, pi) are among them
    for T, mu in [(3, 0.5), (5, 0.25), (8, 0.7)]:
        _, labelled = reference_root_solve_case5(T, mu)
        r = math.sqrt(1 - mu)
        for sign, branch in [(+1.0, "plus"), (-1.0, "minus")]:
            coeffs = np.zeros(2 * T + 4)
            coeffs[0] = 1.0
            coeffs[-1] = 1.0
            coeffs[T + 1] = sign * r  # z^(T+2) term
            coeffs[T + 2] = sign * r  # z^(T+1) term
            zs = np.roots(coeffs)
            assert len(zs) == 2 * T + 3
            assert np.max(np.abs(np.abs(zs) - 1.0)) < 1e-10
            for k, b in labelled:
                if b in (branch, "both"):
                    assert np.min(np.abs(zs - np.exp(1j * k))) < 1e-8


def test_root_energies_cover_full_spectrum():
    # the 2T+2 momenta other than the degenerate k = pi (energy 4, not an
    # eigenvalue) reproduce the impurity-walk spectrum one to one
    for T, mu in [(1, 0.5), (3, 0.5), (5, 0.3), (6, 0.2), (9, 0.85), (64, 0.1), (64, 0.9)]:
        _, labelled = reference_root_solve_case5(T, mu)
        assert labelled[-1] == (math.pi, "both")
        energies = np.array(sorted(2 - 2 * math.cos(k) for k, _ in labelled[:-1]))
        dense = np.linalg.eigvalsh(walk_matrix(T, mu))
        assert np.max(np.abs(energies - dense)) < 1e-12


def test_root_solver_rejects_bad_inputs():
    with pytest.raises(BracketError):
        root_solve_case5([(3, 0.0)])
    with pytest.raises(BracketError):
        root_solve_case5([(2, 0.5), (3, 1.0)])
    with pytest.raises(ValueError):
        root_solve_case5([(0, 0.5)])


def reference_root_solve_case5(T, mu, tol=1e-13):
    """k0 and every labelled momentum root, (k, branch) sorted by k, by
    scalar bisection, one root at a time: k0 on its guaranteed bracket
    (stepping to the lower half whenever f <= 0), then a scan of each
    branch with one bisection per sign-change interval.  f is evaluated at
    a float, which runs the same numpy ufunc loop as a one-element array."""
    r = math.sqrt(1.0 - mu)

    def f_minus(k):
        return np.cos((T + 1.5) * k) - r * np.cos(0.5 * k)

    def f_plus(k):
        return np.cos((T + 1.5) * k) + r * np.cos(0.5 * k)

    def scan(func, lo, hi, samples):
        grid = np.linspace(lo, hi, samples)
        vals = func(grid)
        roots = []
        for i in range(len(grid) - 1):
            a, b = vals[i], vals[i + 1]
            if a == 0.0:
                roots.append(float(grid[i]))
                continue
            if a * b < 0.0:
                x0, x1 = float(grid[i]), float(grid[i + 1])
                f0 = float(a)
                while x1 - x0 > tol:
                    mid = 0.5 * (x0 + x1)
                    fm = float(func(mid))
                    if fm == 0.0:
                        x0 = x1 = mid
                        break
                    if f0 * fm < 0.0:
                        x1 = mid
                    else:
                        x0, f0 = mid, fm
                roots.append(0.5 * (x0 + x1))
        if vals[-1] == 0.0:
            roots.append(float(grid[-1]))
        return roots

    lo, hi = tol, math.pi / (2 * T + 3)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if float(f_minus(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    samples = 40 * (T + 2) + 1
    upper = math.pi * (1.0 - 1e-12)
    labelled = [(k, "minus") for k in scan(f_minus, tol, upper, samples)]
    labelled += [(k, "plus") for k in scan(f_plus, tol, upper, samples)]
    labelled.append((math.pi, "both"))
    labelled.sort()
    return 0.5 * (lo + hi), tuple(labelled)


def test_root_solver_matches_scalar_reference():
    rng = np.random.default_rng(7)
    points = [(T, mu) for T in range(1, 65) for mu in (0.1, 0.5, 0.9)]
    points += [(int(rng.integers(1, 301)), float(rng.uniform(0.001, 0.999))) for _ in range(50)]
    points.append((600, 0.37))
    for (T, mu), got in zip(points, root_solve_case5(points)):
        k0, labelled = reference_root_solve_case5(T, mu)
        assert (got.T, got.mu, got.k0, got.count) == (T, mu, k0, len(labelled))


def test_root_solver_stops_at_exact_zero_of_k0():
    # a k0 midpoint is an exact zero of the minus branch: the lockstep
    # bisection stops there, the scalar reference kept halving past it
    T, mu = 1, 1e-6
    [got], (k0, labelled) = root_solve_case5([(T, mu)]), reference_root_solve_case5(T, mu)
    assert np.cos(2.5 * got.k0) - math.sqrt(1.0 - mu) * np.cos(0.5 * got.k0) == 0.0
    assert got.k0 != k0
    assert abs(got.k0 - k0) <= 1e-13
    assert got.count == len(labelled)


def test_gap_law_grid_equals_point_solver():
    # the lockstep solve over every grid point gives each point's own result
    t_values = list(range(2, 65)) + [1, 65, 300]
    mu_values = [round(0.1 * k, 1) for k in range(1, 10)]
    points = [(T, mu) for T in t_values for mu in mu_values]
    batch = root_solve_case5(points)
    rows = gap_law_grid(t_values, mu_values)
    assert len(batch) == len(rows) == len(points)
    for (T, mu), got, row in zip(points, batch, rows):
        [want] = root_solve_case5([(T, mu)])
        assert got == want  # dataclass equality: T, mu, k0 and the root count
        assert (row["T"], row["mu"], row["k0"], row["root_count"]) == (T, mu, want.k0, want.count)


def test_gap_law_grid_errors_name_the_point():
    with pytest.raises(ValueError, match=re.escape("mu_values must lie strictly in (0, 1), got 1.0")):
        gap_law_grid([2, 3], [0.5, 1.0])
    with pytest.raises(ValueError, match="got 0"):
        gap_law_grid([2, 0], [0.5])


def test_epsilon_examples():
    spec = ClockSpec(1, 2, (I2,), (), np.zeros((2, 2), dtype=complex))
    assert abs(compute_epsilon(spec) - 1.0) < 1e-12
    spec = ClockSpec(1, 2, (X,), (np.diag([1.0, 0]).astype(complex),), np.diag([1.0, 0]).astype(complex))
    assert compute_epsilon(spec) < 1e-12
    for mu in (0.2, 0.5, 0.8):
        assert abs(compute_epsilon(case5_spec(3, mu)) - (1 - mu)) < 1e-12


def test_epsilon_against_random_search():
    # brute-force oracle: 1e4 random kernel vectors, then hill-climb the
    # best candidate (raw sampling alone cannot reach 1e-6)
    for trial in range(6):
        d = int(RNG.integers(2, 7))
        spec = ClockSpec(
            2,
            d,
            tuple(random_unitary(d, RNG) for _ in range(2)),
            (random_projector(d, int(RNG.integers(1, d)), RNG),),
            random_projector(d, int(RNG.integers(1, d)), RNG),
        )
        eps = compute_epsilon(spec)
        evals, evecs = np.linalg.eigh(spec.input_penalty_total)
        k_in = evecs[:, evals < 1e-10]
        evals, evecs = np.linalg.eigh(spec.output_projector)
        k_out = evecs[:, evals < 1e-10]
        if k_in.shape[1] == 0 or k_out.shape[1] == 0:
            assert eps < 1e-12
            continue
        m = k_out.conj().T @ spec.total_unitary @ k_in
        best = 0.0
        best_x = None
        for _ in range(10_000):
            x = RNG.normal(size=m.shape[1]) + 1j * RNG.normal(size=m.shape[1])
            x /= np.linalg.norm(x)
            val = float(np.linalg.norm(m @ x) ** 2)
            if val > best:
                best, best_x = val, x
        gram = m.conj().T @ m
        for _ in range(300):
            best_x = gram @ best_x
            best_x /= np.linalg.norm(best_x)
        best = max(best, float(np.linalg.norm(m @ best_x) ** 2))
        assert abs(best - eps) < 1e-6


def test_ground_energy_methods_agree():
    spec = case5_spec(20, 0.35)
    dense = ground_energy(spec, "dense")
    iterative = ground_energy(spec, "iterative")
    assert abs(dense.lambda0 - iterative.lambda0) < 1e-9
    assert abs(dense.lambda1 - iterative.lambda1) < 1e-8
    norm = float(np.linalg.norm(direct_matrix(spec), 2))
    assert dense.residual <= 1e-8 * norm
    assert iterative.residual <= 1e-8 * norm
    assert dense.gap == dense.lambda1 - dense.lambda0


def test_ground_energy_root_cross_check():
    spec = case5_spec(3, 0.5)
    report = ground_energy(spec)
    k0 = root_solve_case5([(3, 0.5)])[0].k0
    assert abs(report.lambda0 - (2 - 2 * math.cos(k0))) < 1e-9


def test_iterative_reruns_are_bit_identical():
    spec = case5_spec(60, 0.4)
    assert ground_energy(spec, "iterative") == ground_energy(spec, "iterative")


def test_iterative_resolves_thin_gap():
    # the banded solve pins a ~1e-5 ground energy to the root solver's
    spec = case5_spec(150, 0.4)
    report = ground_energy(spec, "iterative")
    k0 = root_solve_case5([(150, 0.4)])[0].k0
    assert abs(report.lambda0 - (2 - 2 * math.cos(k0))) < 1e-9


def test_dense_two_eigenpairs_match_full_spectrum(monkeypatch):
    solved = []
    for name in ("eigh", "eig_banded"):
        solver = getattr(clock.linalg, name)
        monkeypatch.setattr(
            clock.linalg,
            name,
            lambda a, *args, _solver=solver, **kw: solved.append(a.dtype) or _solver(a, *args, **kw),
        )
    specs = [case5_spec(T, mu) for T, mu in ((1, 0.5), (7, 0.13), (60, 0.85), (300, 0.4))]
    rng = np.random.default_rng(11)
    specs += [random_spec(T, 3, rng) for T in (1, 4, 25)]
    specs += [random_spec(T, d, rng, n_in=2) for T, d in ((2, 2), (40, 3))]
    for method in ("dense", "iterative"):
        for spec in specs:
            report = ground_energy(spec, method)
            ham = direct_matrix(spec)
            want = np.linalg.eigvalsh(ham)[:2]
            assert abs(report.lambda0 - want[0]) <= 1e-12
            assert abs(report.lambda1 - want[1]) <= 1e-12
            assert report.residual <= 1e-8 * np.linalg.norm(ham, 2)
    # case-5 specs are cast to real; random complex unitaries stay complex
    assert solved == ([np.float64] * 4 + [np.complex128] * 5) * 2
    for spec in specs[-2:]:
        assert ground_energy(spec, "iterative") == ground_energy(spec, "iterative")


def test_iterative_matches_root_solver_at_T200():
    for mu in (0.13, 0.4, 0.85):
        report = ground_energy(case5_spec(200, mu), "iterative")
        assert abs(report.lambda0 - case_eigenvalue(5, 200, mu)) <= 1e-9


def test_iterative_matches_dense_at_dimensions_two_and_three():
    specs = [
        ClockSpec(1, 1, (I1,), (I1,), np.zeros((1, 1))),
        ClockSpec(2, 1, (I1, I1), (I1,), np.zeros((1, 1), dtype=complex)),
    ]
    for spec in specs:
        iterative, dense = ground_energy(spec, "iterative"), ground_energy(spec, "dense")
        assert abs(iterative.lambda0 - dense.lambda0) <= 1e-12
        assert abs(iterative.lambda1 - dense.lambda1) <= 1e-12
        assert iterative.residual <= 1e-12


def test_iterative_exactly_singular_ground_energy():
    # zero penalties: the uniform history of each basis state has energy
    # exactly 0, so a shift at lambda0 would make the shifted matrix singular
    specs = [
        ClockSpec(5, 1, (I1,) * 5, (), np.zeros((1, 1))),  # lambda0 = 0 < lambda1
        ClockSpec(4, 2, (X,) * 4, (), np.zeros((2, 2), dtype=complex)),  # lambda0 = lambda1 = 0
    ]
    for spec in specs:
        iterative, dense = ground_energy(spec, "iterative"), ground_energy(spec, "dense")
        values = (iterative.lambda0, iterative.lambda1, iterative.residual)
        assert all(math.isfinite(v) for v in values)
        assert abs(iterative.lambda0 - dense.lambda0) <= 1e-12
        assert abs(iterative.lambda1 - dense.lambda1) <= 1e-12
        assert iterative.residual <= 1e-12
        assert ground_energy(spec, "iterative") == iterative
    assert abs(iterative.lambda1) <= 1e-12


def test_ground_energy_errors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled a refused spec")

    # both refusals come before anything is assembled
    monkeypatch.setattr(clock, "assemble", refuse)
    monkeypatch.setattr(clock, "expand_band", refuse)
    with pytest.raises(ValueError):
        ground_energy(case5_spec(3, 0.5), "magic")
    big = case5_spec(2000, 0.5)
    assert big.dim == 4002 > clock.DENSE_DIM_LIMIT
    with pytest.raises(ValueError, match="dense path limited to dimension 4000, got 4002"):
        ground_energy(big, "dense")


def dense_specs():
    """A real case-5 spec and a genuinely complex one of about the same
    dimension (602 and 600)."""
    return [case5_spec(300, 0.4), random_spec(199, 3, np.random.default_rng(23))]


def spec_band(spec):
    """The band ``ground_energy`` solves: cast to real when it is."""
    band = assemble(spec.T, spec.input_penalty_total, spec.output_projector, spec.unitaries)
    return band.real if not band.imag.any() else band


def test_dense_solve_holds_one_matrix():
    # the matrix is built in Fortran order and LAPACK overwrites it, so
    # the traced peak is one n x n matrix plus check_finite's boolean
    # mask (1/8 of a real matrix): a second copy would put it near 2
    dtypes = []
    for spec in dense_specs():
        dtype = spec_band(spec).dtype
        dtypes.append(dtype)
        tracemalloc.start()
        try:
            ground_energy(spec, "dense")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * spec.dim**2 * dtype.itemsize
    assert dtypes == [np.float64, np.complex128]


def test_dense_solve_bit_identical_to_eigh_of_a_copy(monkeypatch):
    # the in-place solve of the Fortran-order matrix gives the same bits
    # as scipy's eigh of a separately built C-order copy; the residual
    # from the band product agrees with numpy's dense product
    eigh = clock.linalg.eigh
    solved = []
    monkeypatch.setattr(
        clock.linalg, "eigh", lambda *args, **kw: solved.append(eigh(*args, **kw)) or solved[-1]
    )
    for spec in dense_specs():
        report = ground_energy(spec, "dense")
        ham = np.ascontiguousarray(expand_band(spec_band(spec)))
        assert ham.flags.c_contiguous and not ham.flags.f_contiguous
        want_vals, want_vecs = eigh(ham, subset_by_index=[0, 1])
        assert report.lambda0 == want_vals[0] and report.lambda1 == want_vals[1]
        v0 = solved[-1][1][:, 0]
        assert np.array_equal(v0, want_vecs[:, 0])
        numpy_residual = np.linalg.norm(ham @ v0 - report.lambda0 * v0)
        assert abs(report.residual - numpy_residual) <= 1e-12 * np.linalg.norm(ham, 2)


def test_block_completeness():
    # union of per-block spectra reproduces the rotated spectrum exactly
    for trial in range(4):
        d = 3
        T = 5
        spec = ClockSpec(
            T,
            d,
            tuple(random_unitary(d, RNG) for _ in range(T)),
            (random_projector(d, 1, RNG), random_projector(d, 2, RNG)),
            random_projector(d, 1, RNG),
        )
        p_in = kernel_complement(spec.input_penalty_total)
        p_out = rotated_output(spec)
        blocks = jordan_decompose(p_in, p_out)
        full = np.linalg.eigvalsh(expand_band(assemble(T, p_in, p_out)))
        per_block = np.sort(
            np.concatenate([np.linalg.eigvalsh(block_matrix(b, T)) for b in blocks])
        )
        assert np.max(np.abs(full - per_block)) < 1e-9


def test_case5_block_ground_matches_root_solver():
    for T, mu in [(2, 0.3), (7, 0.62)]:
        block = JordanBlock(5, np.eye(2), mu=mu)
        lam_dense = np.linalg.eigvalsh(block_matrix(block, T))[0]
        assert abs(lam_dense - case_eigenvalue(5, T, mu)) < 1e-9


def test_kernel_complement_variant_lower_bounds():
    # for commuting input penalties (integer spectrum of the sum),
    # replacing the sum by its kernel complement can only lower energies
    for trial in range(6):
        d = 4
        diag_a = np.diag(RNG.integers(0, 2, size=d).astype(complex))
        diag_b = np.diag(RNG.integers(0, 2, size=d).astype(complex))
        spec = ClockSpec(
            4,
            d,
            tuple(random_unitary(d, RNG) for _ in range(4)),
            (diag_a, diag_b),
            random_projector(d, 1, RNG),
        )
        surrogate_in = kernel_complement(spec.input_penalty_total)
        raw = np.linalg.eigvalsh(direct_matrix(spec))[0]
        surrogate = np.linalg.eigvalsh(direct_matrix(spec, surrogate_in))[0]
        assert surrogate <= raw + 1e-12


def test_spec_file_round_trip(tmp_path):
    spec = random_spec(3, 2, RNG)
    path = tmp_path / "case.clock"
    sections = [(f"U {t}", u) for t, u in enumerate(spec.unitaries, start=1)]
    sections += [(f"PI_IN {k}", p) for k, p in enumerate(spec.input_projectors, start=1)]
    sections.append(("PI_OUT", spec.output_projector))
    lines = [f"T {spec.T}", f"dim {spec.comp_dim}"]
    for head, matrix in sections:
        lines.append(head)
        lines += ["  ".join(f"{z.real!r} {z.imag!r}" for z in row.tolist()) for row in matrix]
    path.write_text("\n".join(lines) + "\n")
    again = read_clock_spec(path)
    assert again.T == spec.T and again.comp_dim == spec.comp_dim
    e1 = np.linalg.eigvalsh(direct_matrix(spec))
    e2 = np.linalg.eigvalsh(direct_matrix(again))
    assert np.max(np.abs(e1 - e2)) < 1e-12


def test_spec_file_errors(tmp_path):
    path = tmp_path / "broken.clock"
    path.write_text("T 1\ndim 1\nU 1\n1 0\n")  # missing PI_OUT
    with pytest.raises(ClockSpecParseError):
        read_clock_spec(path)
    path.write_text("T 1\ndim 1\nU 1\n1 0 0\nPI_OUT\n0 0\n")  # odd token count
    with pytest.raises(ClockSpecParseError):
        read_clock_spec(path)
    path.write_text("T abc\ndim 1\nU 1\n1 0\nPI_OUT\n0 0\n")  # non-integer header
    with pytest.raises(ClockSpecParseError, match=r"^line 1: T must be an integer"):
        read_clock_spec(path)
    path.write_text("T 1\ndim 2\nU 1\n1 0 0 0\n0 0\nPI_OUT\n0 0 0 0\n0 0 0 0\n")  # ragged rows
    with pytest.raises(ClockSpecParseError, match=r"^line 5: U row has 1 entries, expected 2"):
        read_clock_spec(path)
    # section labels count 1, 2, ... and every header and PI_OUT comes once
    for text, message in [
        ("T 2\ndim 1\nU 2\n1 0\nU 1\n1 0\nPI_OUT\n0 0\n", "line 3: expected 'U 1', got 'U 2'"),
        ("T 1\ndim 1\nU banana\n1 0\nPI_OUT\n0 0\n", "line 3: expected 'U 1', got 'U banana'"),
        ("T 1\ndim 1\nU 1\n1 0\nPI_IN 2\n1 0\nPI_OUT\n0 0\n", "line 5: expected 'PI_IN 1', got 'PI_IN 2'"),
        ("T 1\ndim 1\nU 1\n1 0\nPI_OUT\n0 0\nPI_OUT\n1 0\n", "line 7: second PI_OUT section"),
        ("T 1\ndim 1\nU 1\n1 0\nPI_OUT 1\n0 0\n", "line 5: expected 'PI_OUT', got 'PI_OUT 1'"),
        ("T 1\ndim 1\nT 2\nU 1\n1 0\nPI_OUT\n0 0\n", "line 3: repeated T header"),
        ("T 1\ndim 1\nU 1\n1 0\nPI_OUT\n0 0\ndim 1\n", "line 7: repeated dim header"),
    ]:
        path.write_text(text)
        with pytest.raises(ClockSpecParseError, match=f"^{re.escape(message)}$"):
            read_clock_spec(path)
