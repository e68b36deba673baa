"""History-state (clock) Hamiltonians and their complete spectral theory
at desk scale: one assembler from unitaries and penalty projectors, Jordan
decomposition of the penalty pair into five canonical cases, closed-form
and root-solved block eigenvalues, the acceptance amplitude epsilon, and
extremal eigenvalues with their residual norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import scipy.linalg as linalg

from .errors import BracketError, ParseError

__all__ = [
    "ClockSpec",
    "ClockSpecParseError",
    "JordanBlock",
    "SpectralReport",
    "Case5Roots",
    "BracketError",
    "case5_spec",
    "assemble",
    "expand_band",
    "jordan_decompose",
    "reconstruct_projectors",
    "random_projector",
    "jordan_scan",
    "case_eigenvalue",
    "case_chain",
    "chain_ground_energy",
    "root_solve_case5",
    "compute_epsilon",
    "ground_energy",
    "gap_law_grid",
    "read_clock_spec",
]

UNITARY_ATOL = 1e-12
PROJECTOR_ATOL = 1e-12
KERNEL_EIG_TOL = 1e-10
DEGENERACY_TOL = 1e-10
CLUSTER_TOL = 1e-8
DENSE_DIM_LIMIT = 4000
SHIFT_BELOW_GROUND = 1e-12  # inverse-iteration shift under lambda0, relative to the max row sum
ROOT_TOL = 1e-13  # bracket width at which the case-5 bisection stops


class ClockSpecParseError(ParseError):
    """Raised on malformed clock-spec files."""


def _is_projector(p: np.ndarray) -> bool:
    return np.allclose(p, p.conj().T, atol=PROJECTOR_ATOL) and np.allclose(
        p @ p, p, atol=PROJECTOR_ATOL
    )


@dataclass(frozen=True)
class ClockSpec:
    """A T-step computation with penalty projectors on input and output.

    Unitaries must be unitary and projectors idempotent Hermitian within
    1e-12; the output penalty may have any rank for assembly (the tight
    gap law assumes rank one).
    """

    T: int
    comp_dim: int
    unitaries: tuple[np.ndarray, ...]
    input_projectors: tuple[np.ndarray, ...]
    output_projector: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d = self.comp_dim
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if len(self.unitaries) != self.T:
            raise ValueError(f"expected {self.T} unitaries, got {len(self.unitaries)}")
        # U_1..U_n have the right shape; U_{n+1}, if any, does not
        n = next((i for i, u in enumerate(self.unitaries) if u.shape != (d, d)), self.T)
        if n:
            stack = np.stack(self.unitaries[:n])
            gram = stack @ stack.conj().transpose(0, 2, 1)
            unitary = np.isclose(gram, np.eye(d), atol=UNITARY_ATOL).all(axis=(1, 2))
            if not unitary.all():
                i = int(np.argmin(unitary)) + 1
                raise ValueError(f"U_{i} is not unitary within {UNITARY_ATOL}")
        if n < self.T:
            shape = self.unitaries[n].shape
            raise ValueError(f"U_{n + 1} has shape {shape}, expected {(d, d)}")
        for i, p in enumerate(self.input_projectors, start=1):
            if p.shape != (d, d):
                raise ValueError(f"input projector {i} has wrong shape {p.shape}")
            if not _is_projector(p):
                raise ValueError(f"input projector {i} fails the projector check")
        if self.output_projector.shape != (d, d):
            raise ValueError("output projector has wrong shape")
        if not _is_projector(self.output_projector):
            raise ValueError("output projector fails the projector check")

    @property
    def dim(self) -> int:
        return (self.T + 1) * self.comp_dim

    @property
    def input_penalty_total(self) -> np.ndarray:
        total = np.zeros((self.comp_dim, self.comp_dim), dtype=complex)
        for p in self.input_projectors:
            total = total + p
        return total

    @property
    def total_unitary(self) -> np.ndarray:
        return reduce(lambda acc, u: u @ acc, self.unitaries, np.eye(self.comp_dim, dtype=complex))


def case5_spec(T: int, mu: float) -> ClockSpec:
    """The canonical two-level instance whose assembled matrix is the
    impurity-walk chain: identity evolution, input penalty on level 0,
    output penalty the mu-tilted rank-one projector."""
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie strictly in (0, 1), got {mu}")
    pair = JordanBlock(5, np.eye(2), mu=mu).projector_pair()
    p_in, p_out = (p.astype(complex) for p in pair)
    eye = np.eye(2, dtype=complex)
    return ClockSpec(T, 2, (eye,) * T, (p_in,), p_out)


def _kernel_complement(total: np.ndarray) -> np.ndarray:
    """Projector onto the orthogonal complement of ker(total)."""
    evals, evecs = np.linalg.eigh(total)
    keep = evecs[:, evals > KERNEL_EIG_TOL]
    return keep @ keep.conj().T


def assemble(
    T: int,
    p_first: np.ndarray,
    p_last: np.ndarray,
    hops: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """The upper band of the clock matrix on a (T+1) x (T+1) grid of d x d
    blocks: I + p_first and I + p_last at the two end times, 2I on the
    inner diagonal blocks, -U_t below and -U_t^H above the diagonal, with
    U_t = I when ``hops`` is None.

    The band is in LAPACK's upper form, ``band[u + i - j, j] = H[i, j]``
    for i <= j, with u the largest offset j - i that holds a nonzero
    entry (at most 2d - 1); ``expand_band`` gives the full Hermitian
    matrix.  The dtype is that of the inputs, so real canonical blocks
    stay real; the diagonal keeps only its real part, so the band stands
    for one exactly Hermitian matrix, and no zero entry is -0.0.

    Every clock matrix is built here.  A spec's direct form passes its
    summed input penalty, output projector and unitaries; its rotated
    (path-Laplacian) form passes ``hops=None`` and the output penalty
    conjugated through the whole evolution, U^H P_out U; a Jordan block
    passes its canonical pair."""
    d = p_first.shape[0]
    eye = np.eye(d)
    hop = np.broadcast_to(eye, (T, d, d)) if hops is None else np.stack(hops)
    # block row t is [D_t | -U_{t+1}^H]: entry (a, c) is H[t d + a, t d + c]
    rows = np.zeros((T + 1, d, 2 * d), dtype=np.result_type(p_first, p_last, hop))
    rows[:, :, :d] = 2.0 * eye
    rows[0, :, :d] = eye + p_first
    rows[T, :, :d] = eye + p_last
    rows[:T, :, d:] = -hop.conj().transpose(0, 2, 1)
    t, a, c = np.ogrid[: T + 1, :d, : 2 * d]
    keep = (c >= a) & (t * d + c < (T + 1) * d)  # upper triangle, inside the matrix
    band_row, col = np.broadcast_arrays(2 * d - 1 + a - c, t * d + c)
    band = np.zeros((2 * d, (T + 1) * d), dtype=rows.dtype)
    band[band_row[keep], col[keep]] = rows[keep]
    band[-1] = band[-1].real  # LAPACK reads only the real part of the diagonal
    band[band == 0] = 0  # -U^H of a zero entry is -0.0, whose sign LAPACK would read
    return band[np.argmax(band.any(axis=1)) :]


def expand_band(band: np.ndarray) -> np.ndarray:
    """The full Hermitian matrix whose upper band is ``band``: the upper
    triangle as stored, mirrored by ``conj`` below the diagonal.

    The array is in Fortran order, the layout LAPACK works in, so
    ``scipy.linalg.eigh`` with ``overwrite_a=True`` diagonalises it in
    place instead of making a second n x n copy."""
    u, n = band.shape[0] - 1, band.shape[1]
    lower = band.conj() + 0.0  # conj makes -0.0 imaginary parts; adding 0.0 turns each into +0.0
    full = np.zeros((n, n), dtype=band.dtype, order="F")
    i = np.arange(n)
    for k in range(u + 1):  # the diagonal is written last from the upper band
        full[i[k:], i[: n - k]] = lower[u - k, k:]
        full[i[: n - k], i[k:]] = band[u - k, k:]
    return full


# -- Jordan pair decomposition ----------------------------------------

# (in, out) penalties of the one-dimensional Jordan cases
_CASE_PENALTIES = {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}


@dataclass(frozen=True)
class JordanBlock:
    """One invariant subspace of a projector pair, spanned by the columns
    of ``basis``.

    case_tag 1..4 are the one-dimensional integer cases, with the (in,
    out) penalties of ``_CASE_PENALTIES``; case 5 is the genuinely tilted
    two-dimensional case with principal-angle parameter mu.
    """

    case_tag: int
    basis: np.ndarray = field(repr=False)
    mu: float | None = None

    def projector_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical small (in, out) projector forms on this block."""
        if self.case_tag in _CASE_PENALTIES:
            p_in, p_out = _CASE_PENALTIES[self.case_tag]
            return np.array([[p_in]], dtype=float), np.array([[p_out]], dtype=float)
        mu = self.mu
        xi = math.sqrt(mu * (1.0 - mu))
        p_in = np.array([[1.0, 0.0], [0.0, 0.0]])
        p_out = np.array([[1.0 - mu, -xi], [-xi, mu]])
        return p_in, p_out


def jordan_decompose(p_in: np.ndarray, p_out: np.ndarray) -> list[JordanBlock]:
    """Split the space into invariant 1- and 2-dimensional blocks on
    which the pair takes one of its five canonical forms.

    Computed from the eigendecomposition of the output projector
    compressed to the range of the input projector; compressed
    eigenvalues within ``DEGENERACY_TOL`` of 0 or 1 are reclassified
    into the adjacent integer cases, since the tilted form requires a
    strictly interior angle.
    """
    if not _is_projector(p_in):
        raise ValueError("first argument fails the projector check")
    if not _is_projector(p_out):
        raise ValueError("second argument fails the projector check")
    if p_in.shape != p_out.shape:
        raise ValueError("projector dimensions differ")
    dim = p_in.shape[0]
    p_in = p_in.astype(complex)
    p_out = p_out.astype(complex)

    blocks: list[JordanBlock] = []
    consumed: list[np.ndarray] = []

    evals, evecs = np.linalg.eigh(p_in)
    range_in = evecs[:, evals > 0.5]
    if range_in.shape[1]:
        compressed = range_in.conj().T @ p_out @ range_in
        compressed = (compressed + compressed.conj().T) / 2.0
        cvals, cvecs = np.linalg.eigh(compressed)
        for overlap, w in zip(cvals, cvecs.T):
            u = range_in @ w
            u = u / np.linalg.norm(u)
            mu = float(min(max(1.0 - overlap, 0.0), 1.0))
            consumed.append(u)
            if mu <= DEGENERACY_TOL:
                blocks.append(JordanBlock(4, u.reshape(-1, 1)))
            elif mu >= 1.0 - DEGENERACY_TOL:
                blocks.append(JordanBlock(2, u.reshape(-1, 1)))
            else:
                xi = math.sqrt(mu * (1.0 - mu))
                v = -(p_out @ u - (1.0 - mu) * u) / xi
                v = v / np.linalg.norm(v)
                consumed.append(v)
                blocks.append(JordanBlock(5, np.column_stack([u, v]), mu=mu))

    if consumed:
        span = np.column_stack(consumed)
        # orthonormal complement of everything consumed so far
        proj = np.eye(dim, dtype=complex) - span @ span.conj().T
    else:
        proj = np.eye(dim, dtype=complex)
    evals, evecs = np.linalg.eigh((proj + proj.conj().T) / 2.0)
    complement = evecs[:, evals > 0.5]
    if complement.shape[1]:
        rest = complement.conj().T @ p_out @ complement
        rest = (rest + rest.conj().T) / 2.0
        rvals, rvecs = np.linalg.eigh(rest)
        for val, w in zip(rvals, rvecs.T):
            x = complement @ w
            x = x / np.linalg.norm(x)
            if val > 1.0 - CLUSTER_TOL:
                blocks.append(JordanBlock(3, x.reshape(-1, 1)))
            elif val < CLUSTER_TOL:
                blocks.append(JordanBlock(1, x.reshape(-1, 1)))
            else:
                raise RuntimeError(
                    f"output projector not 0/1 on the complement (eigenvalue {val}); "
                    "inputs are not a clean projector pair"
                )
    return blocks


def reconstruct_projectors(
    blocks: list[JordanBlock], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the pair from its blocks; inverse of the decomposition."""
    p_in = np.zeros((dim, dim), dtype=complex)
    p_out = np.zeros((dim, dim), dtype=complex)
    for block in blocks:
        small_in, small_out = block.projector_pair()
        basis = block.basis
        p_in += basis @ small_in @ basis.conj().T
        p_out += basis @ small_out @ basis.conj().T
    return p_in, p_out


def random_projector(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a random rank-``rank`` subspace of C^d, spanned by
    the leading columns of the Q factor of a complex Gaussian matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    v = q[:, :rank]
    return v @ v.conj().T


def jordan_scan(
    dim: int, trials: int, rng: np.random.Generator
) -> tuple[dict[int, int], float, float]:
    """Decompose ``trials`` random projector pairs and rebuild each.

    Each trial draws a dimension in [2, dim] and a rank for each
    projector from ``rng``.  Returns how many blocks of each case 1..5
    occurred, the largest entry error of the rebuilt pairs, and the
    largest |epsilon - (1 - mu)| over the case-5 blocks, epsilon taken
    from the block's canonical pair as a one-step clock.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    case_counts = dict.fromkeys(range(1, 6), 0)
    worst_recon = 0.0
    worst_eps = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, dim + 1))
        p = random_projector(d, int(rng.integers(0, d + 1)), rng)
        q = random_projector(d, int(rng.integers(0, d + 1)), rng)
        blocks = jordan_decompose(p, q)
        p2, q2 = reconstruct_projectors(blocks, d)
        worst_recon = max(
            worst_recon, float(np.max(np.abs(p2 - p))), float(np.max(np.abs(q2 - q)))
        )
        for b in blocks:
            case_counts[b.case_tag] += 1
            if b.case_tag == 5:
                eps = compute_epsilon(case5_spec(1, b.mu))
                worst_eps = max(worst_eps, abs(eps - (1.0 - b.mu)))
    return case_counts, worst_recon, worst_eps


# -- closed forms and the impurity walk --------------------------------


def case_eigenvalue(case_tag: int, T: int, mu: float | None = None) -> float:
    """Ground energy of a single block: 0, the two pinned-endpoint
    closed forms, or the impurity-walk root for the tilted case."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if case_tag == 1:
        return 0.0
    if case_tag in (2, 3):
        return 2.0 - 2.0 * math.cos(math.pi / (2 * T + 3))
    if case_tag == 4:
        return 2.0 - 2.0 * math.cos(math.pi / (T + 2))
    if case_tag == 5:
        if mu is None:
            raise ValueError("case 5 requires mu")
        return 2.0 - 2.0 * math.cos(root_solve_case5([(T, mu)])[0].k0)
    raise ValueError(f"case_tag must be 1..5, got {case_tag}")


def case_chain(case_tag: int, T: int, mu: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a block's Hamiltonian as a tridiagonal
    chain.

    Tags 1..4 give the (T+1)-site path that ``assemble`` builds from the
    block's canonical pair: 2 inside, 1 + p_in and 1 + p_out at the two
    ends (the penalties of ``_CASE_PENALTIES``), -1 between neighbours.
    Tag 5 gives the 2(T+1)-site impurity walk: two pinned path segments
    joined by the coupling -sqrt(mu(1-mu)), with on-site terms 2-mu and
    1+mu at the junction; same spectrum as the two-level tilted-penalty
    clock after reordering.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if case_tag in _CASE_PENALTIES:
        p_in, p_out = _CASE_PENALTIES[case_tag]
        diag = np.full(T + 1, 2.0)
        diag[0] = 1.0 + p_in
        diag[T] = 1.0 + p_out
        return diag, np.full(T, -1.0)
    if case_tag != 5:
        raise ValueError(f"case_tag must be 1..5, got {case_tag}")
    if mu is None:
        raise ValueError("case 5 requires mu")
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie strictly in (0, 1), got {mu}")
    n = 2 * (T + 1)
    diag = np.full(n, 2.0)
    diag[T] = 2.0 - mu
    diag[T + 1] = 1.0 + mu
    diag[n - 1] = 1.0
    off = np.full(n - 1, -1.0)
    off[T] = -math.sqrt(mu * (1.0 - mu))
    return diag, off


def chain_ground_energy(diag: np.ndarray, off: np.ndarray) -> float:
    """Lowest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``diag`` and off-diagonal ``off``, by LAPACK ``dsterf`` (root-free QL
    iteration, eigenvalues only).

    ``np.linalg.eigvalsh`` of the dense matrix runs ``dsytrd`` and then
    ``dsterf``; on a matrix that is already tridiagonal every Householder
    reflector is the identity, so this returns the same float without
    forming the matrix.  It is independent of the momentum root solve.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    if diag.ndim != 1 or not diag.size:
        raise ValueError("chain needs a non-empty one-dimensional diagonal")
    if off.shape != (diag.size - 1,):
        raise ValueError(
            f"off-diagonal must have {diag.size - 1} entries, got shape {off.shape}"
        )
    if diag.size == 1:  # dsterf's wrapper refuses an empty off-diagonal
        return float(diag[0])
    evals, info = linalg.lapack.dsterf(diag, off)
    if info != 0:
        raise RuntimeError(f"dsterf failed to converge (info={info})")
    return float(evals[0])


@dataclass(frozen=True)
class Case5Roots:
    """The tilted block's ground momentum k0 and how many momentum roots
    its quantisation condition has on (0, pi]."""

    T: int
    mu: float
    k0: float
    count: int


def _case5_f(k, scale, sr):
    """f(k, s) at frequency scale = T + 3/2 and sr = s sqrt(1-mu)."""
    return np.cos(scale * k) + sr * np.cos(0.5 * k)


def root_solve_case5(points: list[tuple[int, float]]) -> list[Case5Roots]:
    """k0 and the root count of cos((T+3/2)k) = -/+ sqrt(1-mu) cos(k/2) at
    every (T, mu) point.

    Both branches are one function f(k, s) = cos((T+3/2)k) + s sqrt(1-mu)
    cos(k/2), s = -1 (minus) or +1 (plus).  Each has T+1 roots on (0, pi),
    and k = pi satisfies both trivially (both sides vanish; its energy 4
    is not an eigenvalue of the chain): 2T+3 momenta in total, the other
    2T+2 giving the 2(T+1) eigenvalues 2 - 2cos(k) one to one.  The count
    is checked, not assumed: on a grid of 40(T+2)+1 points per branch,
    the exact zeros of f plus the strict sign changes must number T+1.

    k0, the smallest root, always comes from the minus branch and is
    bracketed inside (0, pi/(2T+3)); the ground energy of the impurity
    walk is 2 - 2cos(k0).  The k0 brackets of all points are bisected in
    one lockstep loop until each is at most ROOT_TOL wide or its midpoint
    is an exact zero of f, which is then k0; otherwise k0 is the midpoint.
    Each bracket halves on its own, so a point's k0 does not depend on
    the other points.
    """
    brackets, counts = [], []  # per point: k0's bracket (lo, hi, f(lo)), s sqrt(1-mu), T + 3/2
    for T, mu in points:
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        if not 0 < mu < 1:
            raise BracketError(f"mu must lie strictly in (0, 1), got {mu}")
        r = math.sqrt(1.0 - mu)
        lo, hi = ROOT_TOL, math.pi / (2 * T + 3)
        flo, fhi = _case5_f(np.array([lo, hi]), T + 1.5, -r).tolist()
        if not (flo > 0.0 > fhi):
            raise BracketError(
                f"no sign change on (0, pi/(2T+3)) for T={T}, mu={mu}: "
                f"f({lo})={flo}, f({hi})={fhi}"
            )
        grid = np.linspace(ROOT_TOL, math.pi * (1.0 - 1e-12), 40 * (T + 2) + 1)
        vals = _case5_f(grid, T + 1.5, np.array([[-r], [r]]))  # row 0: minus, row 1: plus
        signs = np.sign(vals)
        found = np.count_nonzero(vals == 0.0, axis=1) + np.count_nonzero(
            signs[:, :-1] * signs[:, 1:] < 0.0, axis=1
        )
        for name, n in zip(("minus", "plus"), found.tolist()):
            if n != T + 1:
                raise RuntimeError(f"expected T+1 = {T + 1} {name} roots on (0, pi), found {n}")
        brackets.append((lo, hi, flo, -r, T + 1.5))
        counts.append(1 + int(found.sum()))
    x0, x1, f0, sr, scale = np.array(brackets).T
    while (act := np.flatnonzero(x1 - x0 > ROOT_TOL)).size:
        mid = 0.5 * (x0[act] + x1[act])
        fm = _case5_f(mid, scale[act], sr[act])
        left = np.sign(f0[act]) * np.sign(fm) < 0.0  # root in (x0, mid)
        x1[act] = np.where(left | (fm == 0.0), mid, x1[act])
        x0[act] = np.where(left, x0[act], mid)
        f0[act] = np.where(left, f0[act], fm)
    k0 = (0.5 * (x0 + x1)).tolist()
    return [Case5Roots(T, mu, k, n) for (T, mu), k, n in zip(points, k0, counts)]


# -- epsilon and extremal eigenvalues ----------------------------------


def compute_epsilon(spec: ClockSpec) -> float:
    """Largest squared overlap between an evolved valid input and an
    accepted output: ||Q_out U_T..U_1 Q_in||^2 for the kernel projectors
    of the two penalties."""
    q_in = np.eye(spec.comp_dim, dtype=complex) - _kernel_complement(
        spec.input_penalty_total
    )
    q_out = np.eye(spec.comp_dim, dtype=complex) - spec.output_projector
    m = q_out @ spec.total_unitary @ q_in
    sigma = np.linalg.svd(m, compute_uv=False)
    top = float(sigma[0]) if sigma.size else 0.0
    return float(min(max(top * top, 0.0), 1.0))


@dataclass(frozen=True)
class SpectralReport:
    lambda0: float
    lambda1: float
    method: str
    residual: float

    def __post_init__(self) -> None:
        if self.lambda1 < self.lambda0:
            raise ValueError("lambda1 must be >= lambda0")

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def ground_energy(spec: ClockSpec, method: str = "dense") -> SpectralReport:
    """Two lowest eigenvalues and the residual norm ||H v0 - lambda0 v0||
    of the ground vector.  The residual is an error estimate, not an
    enclosure: it does not prove that no eigenvalue lies below lambda0.

    Both methods start from the upper band ``assemble`` returns, so both
    diagonalise one exactly Hermitian matrix.  The band is cast to real
    when its imaginary part is exactly zero (every ``case5_spec``);
    genuinely complex unitaries keep it complex.  Dense diagonalisation
    expands the band (``expand_band``) into one Fortran-order n x n matrix
    and lets LAPACK overwrite it in place, with no second copy: 8 n^2
    bytes for a real band and 16 n^2 for a complex one, so 256 MB rather
    than 512 MB for a complex matrix at the cap of dimension 4000.  It
    computes only the two lowest eigenpairs.  The iterative path works
    on the band itself, of half-bandwidth at most 2d - 1, in O(n d^2) time
    and O(n d) memory: LAPACK's banded driver gives the two lowest
    eigenvalues without eigenvectors, and two steps of inverse iteration
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965) from a fixed
    start vector give the ground vector, so reruns are bit-identical.
    The shift lies SHIFT_BELOW_GROUND times the max row sum (a bound on
    ||H||) below lambda0, so H minus the shift is positive definite and
    its Cholesky factorisation exists even when lambda0 is an exact
    eigenvalue, as 0 is for zero penalties.  Its row sums, and the
    residual of both methods, come from BLAS's band-times-vector product
    on the same band.
    """
    if method not in ("dense", "iterative"):
        raise ValueError(f"method must be 'dense' or 'iterative', got {method!r}")
    if method == "dense" and spec.dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense path limited to dimension {DENSE_DIM_LIMIT}, got {spec.dim}"
        )
    band = assemble(spec.T, spec.input_penalty_total, spec.output_projector, spec.unitaries)
    if not band.imag.any():
        band = band.real
    u = band.shape[0] - 1
    if method == "dense":
        evals, evecs = linalg.eigh(expand_band(band), subset_by_index=[0, 1], overwrite_a=True)
        v0 = evecs[:, 0]
    else:
        evals = linalg.eig_banded(band, eigvals_only=True, select="i", select_range=(0, 1))
        norm_bound = linalg.blas.dsbmv(u, 1.0, abs(band), np.ones(spec.dim)).max()
        shifted = band.copy()
        shifted[-1] -= evals[0] - SHIFT_BELOW_GROUND * norm_bound
        v0 = np.random.default_rng(0).standard_normal(spec.dim)
        for _ in range(2):
            v0 = linalg.solveh_banded(shifted, v0)
            v0 /= np.linalg.norm(v0)
    hv0 = (linalg.blas.zhbmv if np.iscomplexobj(band) else linalg.blas.dsbmv)(u, 1.0, band, v0)
    residual = float(np.linalg.norm(hv0 - evals[0] * v0))
    return SpectralReport(float(evals[0]), float(evals[1]), method, residual)


def gap_law_grid(t_values: list[int], mu_values: list[float]) -> list[dict]:
    """Sweep (T, mu): root-solved and dense ground energies, epsilon,
    and the two scale-free ratios whose envelopes the law freezes.

    ``lambda0_root`` is 2 - 2cos(k0) from the momentum bisection of all
    points at once.  ``lambda0_dense`` is the independent oracle:
    ``chain_ground_energy`` (QL iteration) on the impurity-walk chain
    ``case_chain(5, T, mu)``, the same float that ``np.linalg.eigvalsh`` of
    the dense chain gives.
    """
    if not t_values:
        raise ValueError("empty scan: t_values is empty")
    if not mu_values:
        raise ValueError("empty scan: mu_values is empty")
    if min(t_values) < 1:
        raise ValueError(f"t_values must all be >= 1, got {min(t_values)}")
    bad_mu = next((mu for mu in mu_values if not 0 < mu < 1), None)
    if bad_mu is not None:
        raise ValueError(f"mu_values must lie strictly in (0, 1), got {bad_mu}")
    rows = []
    for roots in root_solve_case5([(T, mu) for T in t_values for mu in mu_values]):
        T, mu = roots.T, roots.mu
        lam_root = 2.0 - 2.0 * math.cos(roots.k0)
        row = {
            "T": T,
            "mu": mu,
            "k0": roots.k0,
            "root_count": roots.count,
            "lambda0_root": lam_root,
            "epsilon": 1.0 - mu,
            "gap_ratio": lam_root * T * T / mu,
            "k0_scaled": roots.k0 * T / math.sqrt(mu),
            "lambda0_dense": chain_ground_energy(*case_chain(5, T, mu)),
        }
        rows.append(row)
    return rows


# -- plain-text spec files ---------------------------------------------


def read_clock_spec(path) -> ClockSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    header: dict[str, int] = {}
    sections: list[tuple[str, int, list[tuple[int, list[complex]]]]] = []
    current: list[tuple[int, list[complex]]] | None = None
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head in ("T", "dim") and len(tokens) == 2:
            if head in header:
                raise ClockSpecParseError(f"repeated {head} header", lineno)
            try:
                header[head] = int(tokens[1])
            except ValueError:
                raise ClockSpecParseError(f"{head} must be an integer: {line!r}", lineno) from None
            continue
        if head in ("U", "PI_IN", "PI_OUT"):
            count = sum(h == head for h, _, _ in sections)
            if head == "PI_OUT" and count:
                raise ClockSpecParseError("second PI_OUT section", lineno)
            want = head if head == "PI_OUT" else f"{head} {count + 1}"  # U and PI_IN count 1, 2, ...
            if tokens != want.split():
                raise ClockSpecParseError(f"expected {want!r}, got {line!r}", lineno)
            current = []
            sections.append((head, lineno, current))
            continue
        if current is None:
            raise ClockSpecParseError(f"matrix row before any section: {line!r}", lineno)
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            raise ClockSpecParseError(f"bad numeric token in {line!r}", lineno) from None
        if len(values) % 2:
            raise ClockSpecParseError("expected re/im pairs", lineno)
        current.append(
            (lineno, [complex(values[2 * i], values[2 * i + 1]) for i in range(len(values) // 2)])
        )
    T, dim = header.get("T"), header.get("dim")
    if T is None or dim is None:
        raise ClockSpecParseError("missing T or dim header")
    unitaries: list[np.ndarray] = []
    input_projectors: list[np.ndarray] = []
    output: np.ndarray | None = None
    for head, lineno, rows in sections:
        for row_line, row in rows:
            if len(row) != dim:
                raise ClockSpecParseError(
                    f"{head} row has {len(row)} entries, expected {dim}", row_line
                )
        matrix = np.array([row for _, row in rows], dtype=complex)
        if matrix.shape != (dim, dim):
            raise ClockSpecParseError(
                f"{head} block has shape {matrix.shape}, expected {(dim, dim)}", lineno
            )
        if head == "U":
            unitaries.append(matrix)
        elif head == "PI_IN":
            input_projectors.append(matrix)
        else:
            output = matrix
    if output is None:
        raise ClockSpecParseError("missing PI_OUT section")
    if len(unitaries) != T:
        raise ClockSpecParseError(f"expected {T} unitaries, found {len(unitaries)}")
    try:
        return ClockSpec(T, dim, tuple(unitaries), tuple(input_projectors), output)
    except ValueError as err:
        raise ClockSpecParseError(str(err)) from err
