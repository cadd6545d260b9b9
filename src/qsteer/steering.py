"""Steering of bipartite states by POVM elements on Alice's side.

Covers the steered-state map, its two-qubit Bloch form, the canonical
(maximally-mixed-Alice) transform, the whitened steering map of the general
MSC path, and the quantum steering ellipsoid: the set of Bloch vectors
Bob's qubit can be steered to. The ellipsoid comes from the whitened Pauli
form, which has a = 0, so the steered set is the image {c + M u : |u| = 1}
of the measurement sphere; its axes are the singular directions of M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GeometryViolation,
    InvalidPOVMElement,
    NotBipartite,
    NotFinite,
    NotHermitian,
    SingularDenominator,
    SingularMarginal,
    ZeroProbability,
)
from .optimize import max_norm_on_sphere
from .qcore import (
    HERMITIAN_TOL,
    DensityMatrix,
    PauliForm,
    _fix_phase,
    dag,
    fibonacci_sphere,
    partial_trace,
    pauli_decompose,
    validate_density,
)

ZERO_PROBABILITY_TOL = 1e-12
SINGULAR_MARGINAL_TOL = 1e-12
POVM_EIG_TOL = 1e-10
BALL_TOL = 1e-8


def validate_povm_element(matrix: np.ndarray) -> np.ndarray:
    """Check 0 <= M <= 1 (within tolerance) and Hermiticity; return M."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidPOVMElement(f"POVM element must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite("POVM element has non-finite entries")
    herm_dev = np.abs(m - dag(m)).max()
    if herm_dev > HERMITIAN_TOL:
        raise NotHermitian(f"max |M - M^dag| = {herm_dev:.3e} exceeds tolerance {HERMITIAN_TOL:.0e}")
    eigs = np.linalg.eigvalsh((m + dag(m)) / 2)
    if eigs.min() < -POVM_EIG_TOL or eigs.max() > 1 + POVM_EIG_TOL:
        raise InvalidPOVMElement(
            f"POVM element eigenvalues [{eigs.min():.3e}, {eigs.max():.3e}] "
            f"outside [-{POVM_EIG_TOL:.0e}, 1 + {POVM_EIG_TOL:.0e}]"
        )
    return m


def steer(state: DensityMatrix, m_op: np.ndarray) -> tuple[DensityMatrix, float]:
    """Bob's steered state and the outcome probability for POVM element M.

    Raises ZeroProbability when tr((M x 1) rho) falls below 1e-12; the
    steered state is undefined there rather than renormalized noise. The
    steered operator is symmetrized before dividing by p, so the returned
    state is Hermitian by construction even when p is small.
    """
    if not state.is_bipartite:
        raise NotBipartite(f"steering needs a bipartite state, got dims {state.dims}")
    m_op = validate_povm_element(m_op)
    if m_op.shape[0] != state.dims[0]:
        raise DimensionMismatch(
            f"POVM element dimension {m_op.shape[0]} != Alice dimension {state.dims[0]}"
        )
    # The unnormalized steered operator tr_A((M x 1) rho) and its trace.
    da, db = state.dims
    out = np.einsum("ac,cbad->bd", m_op, state.matrix.reshape(da, db, da, db))
    p = float(np.real(np.trace(out)))
    if p <= ZERO_PROBABILITY_TOL:
        raise ZeroProbability(f"outcome probability {p:.3e} below threshold {ZERO_PROBABILITY_TOL:.0e}")
    return validate_density((out + dag(out)) / (2 * p), (state.dims[1],)), p


def steered_bloch(theta: PauliForm, m) -> np.ndarray:
    """Bob's steered Bloch vector (b + T^T m) / |1 + a.m| for direction m."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NotFinite(f"measurement direction must be finite, got {m.tolist()}")
    den = abs(1.0 + float(theta.a @ m))
    if den <= 1e-12:
        raise SingularDenominator(f"|1 + a.m| = {den:.3e} below 1e-12 (|a| ~ 1 product state)")
    return (theta.b + theta.T.T @ m) / den


def _require_mixed(min_eig: float) -> None:
    if min_eig < SINGULAR_MARGINAL_TOL:
        raise SingularMarginal(
            f"min eigenvalue of rho_A = {min_eig:.3e} below {SINGULAR_MARGINAL_TOL:.0e}; "
            "rho_A is pure and the state is a trivial product"
        )


def canonical_transform(state: DensityMatrix) -> DensityMatrix:
    """Map to the canonical state with the same steering ellipsoid and a = 0.

    Conjugates by rho_A^(-1/2) x 1 and renormalizes; Alice's marginal becomes
    maximally mixed while the set of Bob's steered states is unchanged
    (POVM elements map bijectively through rho_A^(1/2)).
    """
    if not state.is_bipartite:
        raise NotBipartite(f"canonical transform needs a bipartite state, got dims {state.dims}")
    w, v = np.linalg.eigh(partial_trace(state, 0).matrix)
    _require_mixed(w.min())
    op = np.kron((v * w**-0.5) @ dag(v), np.eye(state.dims[1]))
    out = op @ state.matrix @ op
    out = (out + dag(out)) / 2
    out /= np.real(np.trace(out))
    return validate_density(out, state.dims)


def _whitening(state: DensityMatrix) -> np.ndarray:
    """R = U diag(w^-1/2) over rho_A's eigenvalues w above SINGULAR_MARGINAL_TOL, spanning its support."""
    w, u = np.linalg.eigh(partial_trace(state, 0).matrix)
    keep = w > SINGULAR_MARGINAL_TOL
    return u[:, keep] * w[keep] ** -0.5


def _whitened_map(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The whitened steering map T[b, d] = R^dag rho_bd R of a bipartite state and its whitening R = _whitening(state).

    Alice's ket psi = R phi steers to the unnormalized operator phi^dag T phi with probability |phi|^2;
    kets outside rho_A's support steer nothing.
    """
    da, db = state.dims
    r = _whitening(state)
    return np.einsum("cx,cbad,ay->bdxy", r.conj(), state.matrix.reshape(da, db, da, db), r), r


def _whiten(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steering ellipsoids {c + M u : |u| = 1} of Pauli forms, and their whitening maps.

    theta is one Pauli form or a stack (N, 4, 4), each row whitened by its own a = theta[..., 1:, 0]
    through the Lorentz boost B = [[g, -g a^T], [-g a, 1 + g^2/(1 + g) a a^T]], g = (1 - |a|^2)^(-1/2):
    Lambda_{mu nu} = tr(sigma_mu R sigma_nu R) / 2 over 2 g, R = rho_A^(-1/2), with no division by |a|.
    Returns (c, M, B): c = b_can and M = T_can^T of the canonical form B theta / (B theta)_00, and Alice's
    direction m steering to c + M u lies along (B (1, u))[1:]; both uses normalize, so the scale 2 g cancels.
    Raises SingularMarginal when some rho_A is pure.
    """
    a = theta[..., 1:, 0]
    a2 = (a * a).sum(-1)
    _require_mixed((1.0 - np.sqrt(a2.max())) / 2)
    g = (1.0 - a2) ** -0.5
    lam = np.empty(theta.shape)
    lam[..., 0, 0] = g
    lam[..., 0, 1:] = lam[..., 1:, 0] = -g[..., None] * a
    lam[..., 1:, 1:] = np.eye(3) + (g * g / (1.0 + g))[..., None, None] * a[..., :, None] * a[..., None, :]
    can = lam @ theta
    can /= can[..., :1, :1]
    return can[..., 0, 1:], can[..., 1:, 1:].swapaxes(-1, -2), lam


@dataclass(frozen=True)
class Ellipsoid:
    """A steering ellipsoid: center, descending semiaxes, orthonormal frame.

    frame[:, i] is the axis direction for semiaxes[i]. Degenerate steering
    sets (segments, points) carry zero semiaxes rather than a separate type.
    """

    center: np.ndarray
    semiaxes: np.ndarray
    frame: np.ndarray

    def surface_points(self, num: int = 422) -> np.ndarray:
        """Deterministic sample of the surface (rows are Bloch vectors)."""
        u = fibonacci_sphere(num)
        return self.center + (self.frame @ (self.semiaxes[:, None] * u.T)).T

    def surface_residual(self, points: np.ndarray) -> float:
        """Max |normalized radius - 1| over points; needs full-rank axes."""
        y = (np.atleast_2d(points) - self.center) @ self.frame
        if self.semiaxes.min() <= 1e-12:
            raise GeometryViolation("surface residual undefined for a degenerate ellipsoid")
        return float(np.abs(np.linalg.norm(y / self.semiaxes, axis=1) - 1.0).max())

    def containment_violation(self, points: np.ndarray) -> float:
        """How far points stick out of the (possibly degenerate) solid set."""
        y = (np.atleast_2d(points) - self.center) @ self.frame
        live = self.semiaxes > 1e-12
        out = 0.0
        if live.any():
            r = np.linalg.norm(y[:, live] / self.semiaxes[live], axis=1)
            out = max(out, float(np.clip(r - 1.0, 0.0, None).max()) * float(self.semiaxes.max()))
        if (~live).any():
            out = max(out, float(np.abs(y[:, ~live]).max()))
        return out


def qse(state: DensityMatrix) -> Ellipsoid:
    """The quantum steering ellipsoid of a two-qubit state.

    Center c, semiaxes the singular values of M and frame its left singular
    vectors, from one svd of the whitened Pauli form's M (the square roots
    of M M^T's eigenvalues would err by up to sqrt(eps) on a small axis).
    Raises GeometryViolation when the exact largest radius max |c + M u|
    exceeds 1 + BALL_TOL.
    """
    c, m_mat, _ = _whiten(pauli_decompose(state).theta)
    f, semiaxes, _ = np.linalg.svd(m_mat)
    frame = np.column_stack([_fix_phase(f[:, j]) for j in range(3)])
    worst = max_norm_on_sphere(c, m_mat)[0]
    if worst > 1 + BALL_TOL:
        raise GeometryViolation(
            f"ellipsoid surface reaches radius {worst:.12f}, outside the Bloch ball by more than {BALL_TOL:.0e}"
        )
    return Ellipsoid(center=c, semiaxes=semiaxes, frame=frame)


def steered_surface(theta: PauliForm, num: int = 1000) -> np.ndarray:
    """Steered Bloch vectors for a deterministic grid of projective m."""
    ms = fibonacci_sphere(num)
    den = np.abs(1.0 + ms @ theta.a)
    return (theta.b + ms @ theta.T) / den[:, None]
