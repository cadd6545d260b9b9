"""Dense complex linear algebra for small quantum systems (dimension <= 16).

Density-operator validation, partial trace, Hermitian eigendecomposition with
an explicit degeneracy flag, the Pauli (Bloch) decomposition of two-qubit
states, the Fibonacci lattice of directions on the Bloch sphere, and a unit
perpendicular to a direction. All operations are pure functions on
immutable values; matrices are plain complex numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotBipartite,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    WrongDimension,
)

# Tolerances shared by every validation site.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
DEGENERACY_TOL = 1e-9
# Smallest Schmidt coefficient a full-Schmidt-rank pure state may have.
SCHMIDT_FLOOR = 1e-8
MAX_DIM = 16

# ---------- Pauli operators ----------

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# 16 two-qubit Pauli products, stacked for one-shot decomposition.
_PAULI_KRON = np.stack(
    [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
).reshape(4, 4, 4, 4)


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def ket_dm(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| from a (normalized) ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator together with its subsystem dimensions.

    dims has length 1 (single system) or 2 (bipartite A x B); matrix is the
    (prod dims) x (prod dims) complex matrix. Construct via validate_density.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def is_bipartite(self) -> bool:
        return len(self.dims) == 2


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of C^d; vectors[:, i] is the i-th basis ket.

    degenerate is True when the eigendecomposition that produced the basis
    had (near-)equal adjacent eigenvalues, i.e. the basis is not unique.
    """

    vectors: np.ndarray
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class PauliForm:
    """4x4 real matrix of two-qubit Pauli expectation values.

    Block layout: theta[0, 0] = 1, theta[0, 1:] = Bob's Bloch vector b,
    theta[1:, 0] = Alice's Bloch vector a, theta[1:, 1:] = correlation
    matrix T.
    """

    theta: np.ndarray

    @property
    def a(self) -> np.ndarray:
        return self.theta[1:, 0].copy()

    @property
    def b(self) -> np.ndarray:
        return self.theta[0, 1:].copy()

    @property
    def T(self) -> np.ndarray:
        return self.theta[1:, 1:].copy()


def validate_density(matrix: np.ndarray, dims) -> DensityMatrix:
    """Check finiteness, Hermiticity, unit trace and positivity; return a DensityMatrix.

    Raises NotFinite for NaN or infinite entries, NotHermitian / NotUnitTrace
    / NotPSD with the violated tolerance and the measured value, or
    WrongDimension for shape problems.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if len(dims) not in (1, 2) or any(d < 2 for d in dims):
        raise WrongDimension(f"dims must be one or two subsystems of size >= 2, got {dims}")
    d = int(np.prod(dims))
    if d > MAX_DIM:
        raise WrongDimension(f"total dimension {d} exceeds supported maximum {MAX_DIM}")
    if matrix.shape != (d, d):
        raise WrongDimension(f"matrix shape {matrix.shape} does not match dims {dims} (expected {(d, d)})")

    if not np.isfinite(matrix).all():
        bad = int(np.count_nonzero(~np.isfinite(matrix)))
        raise NotFinite(f"{bad} of {matrix.size} matrix entries are NaN or infinite")
    herm_dev = np.abs(matrix - dag(matrix)).max()
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |rho - rho^dag| = {herm_dev:.3e} exceeds tolerance {HERMITIAN_TOL:.0e}")
    trace_dev = abs(matrix.trace() - 1.0)
    if trace_dev > TRACE_TOL:
        raise NotUnitTrace(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds tolerance {TRACE_TOL:.0e}")
    min_eig = float(np.linalg.eigvalsh((matrix + dag(matrix)) / 2).min())
    if min_eig < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below tolerance -{PSD_TOL:.0e}")
    return DensityMatrix(dims=dims, matrix=matrix)


def partial_trace(state: DensityMatrix, keep: int) -> DensityMatrix:
    """Trace out one subsystem of a bipartite state; keep is 0 (A) or 1 (B)."""
    if not state.is_bipartite:
        raise NotBipartite(f"partial trace needs a bipartite state, got dims {state.dims}")
    if keep not in (0, 1):
        raise WrongDimension(f"keep must be 0 or 1, got {keep}")
    da, db = state.dims
    r = state.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ibjb->ij", r) if keep == 0 else np.einsum("aiaj->ij", r)
    return DensityMatrix(dims=(state.dims[keep],), matrix=reduced)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made real and positive; stabilizes tests,
    # coherence itself is phase-invariant.
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
    return v / ph


def degenerate_blocks(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Index runs of two or more sorted eigenvalues whose adjacent gaps are below tol."""
    blocks, start = [], 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or abs(eigenvalues[i - 1] - eigenvalues[i]) >= tol:
            if i - start > 1:
                blocks.append(list(range(start, i)))
            start = i
    return blocks


def eigen_hermitian(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, basis): eigenvalues in descending order, basis
    columns phase-fixed, basis.degenerate set when any adjacent eigenvalue
    gap is below DEGENERACY_TOL. Ties are broken by lexicographic order of
    the phase-fixed eigenvectors.
    """
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise NotFinite("matrix has non-finite entries")
    herm_dev = np.abs(h - dag(h)).max()
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |H - H^dag| = {herm_dev:.3e} exceeds tolerance {HERMITIAN_TOL:.0e}")
    w, v = np.linalg.eigh((h + dag(h)) / 2)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    vecs = np.column_stack([_fix_phase(v[:, i]) for i in range(v.shape[1])])

    # Deterministic ordering inside (near-)degenerate groups.
    def key(k):
        return tuple(np.round(np.concatenate([vecs[:, k].real, vecs[:, k].imag]), 12))

    blocks = degenerate_blocks(w, DEGENERACY_TOL)
    for blk in blocks:
        vecs[:, blk] = vecs[:, sorted(blk, key=key)]
    return w, Basis(vectors=vecs, degenerate=bool(blocks))


def pauli_decompose(state: DensityMatrix) -> PauliForm:
    """Expectation values tr(rho sigma_i x sigma_j) as a 4x4 real block matrix."""
    if state.dims != (2, 2):
        raise WrongDimension(f"Pauli decomposition needs a two-qubit state, got dims {state.dims}")
    theta = np.real(np.einsum("ijkl,lk->ij", _PAULI_KRON, state.matrix))
    return PauliForm(theta=theta)


def pauli_compose(theta) -> DensityMatrix:
    """Reassemble a two-qubit state from its Pauli expectation values.

    Accepts a PauliForm or a raw 4x4 real array with theta[0][0] = 1.
    Raises NotPSD (via validation) when the coefficients are unphysical.
    """
    th = theta.theta if isinstance(theta, PauliForm) else np.asarray(theta, dtype=float)
    if th.shape != (4, 4):
        raise WrongDimension(f"expected a 4x4 coefficient matrix, got shape {th.shape}")
    if abs(th[0, 0] - 1.0) > 1e-12:
        raise WrongDimension(f"theta[0][0] = {th[0, 0]!r} must be 1 within 1e-12")
    rho = np.einsum("ij,ijkl->kl", th, _PAULI_KRON) / 4.0
    return validate_density(rho, (2, 2))


def validate_pauli_forms(theta: np.ndarray) -> None:
    """validate_density's finiteness and positivity checks, batched, on Pauli forms (N, 4, 4).

    Real forms are Hermitian; trace-preserving maps of a validated state keep its trace.
    """
    if not np.isfinite(theta).all():
        bad = int(np.count_nonzero(~np.isfinite(theta)))
        raise NotFinite(f"{bad} of {theta.size} Pauli coefficients are NaN or infinite")
    min_eig = float(np.linalg.eigvalsh(np.einsum("nij,ijkl->nkl", theta, _PAULI_KRON) / 4.0).min())
    if min_eig < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {min_eig:.3e} below tolerance -{PSD_TOL:.0e}")


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of a single-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.real(np.trace(rho @ s)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def qubit_state(b) -> np.ndarray:
    """Density matrix (1/2)(I + b . sigma) for a Bloch vector with |b| <= 1."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise NotFinite(f"Bloch vector must be finite, got {b.tolist()}")
    if np.linalg.norm(b) > 1 + 1e-10:
        raise NotPSD(f"Bloch norm {np.linalg.norm(b):.12f} exceeds 1 + 1e-10")
    return (SIGMA_0 + b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z) / 2


def fibonacci_sphere(n: int) -> np.ndarray:
    """Classic n-point Fibonacci lattice on the unit sphere (rows are unit vectors)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (1.0 + 5.0**0.5) * i
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def unit_perpendicular(v: np.ndarray) -> np.ndarray:
    """A unit 3-vector perpendicular to the unit 3-vector v."""
    w = np.cross(v, np.array([1.0, 0.0, 0.0]))
    if np.linalg.norm(w) < 1e-6:
        w = np.cross(v, np.array([0.0, 1.0, 0.0]))
    return w / np.linalg.norm(w)


def bloch_basis(n) -> Basis:
    """Eigenbasis {spin up, spin down} of n . sigma for a unit vector n."""
    n = np.asarray(n, dtype=float)
    if not np.isfinite(n).all():
        raise NotFinite(f"axis must be finite, got {n.tolist()}")
    n = n / np.linalg.norm(n)
    _, basis = eigen_hermitian(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
    return Basis(vectors=basis.vectors, degenerate=False)
