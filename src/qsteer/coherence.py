"""The l1 coherence of a state in a given basis, and its qubit Bloch form.

For a qubit whose reference basis is the spin eigenbasis of a unit axis n,
the l1 coherence of a state with Bloch vector v equals |v x n|: the
perpendicular distance between the point v and the line through the origin
along n. The two routes are cross-checked against each other in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonUnitAxis, NotFinite
from .qcore import Basis, DensityMatrix

UNIT_AXIS_TOL = 1e-10


def coherence_l1(state: DensityMatrix, basis: Basis) -> float:
    """Sum of absolute values of the off-diagonal entries of rho in basis.

    The state must already be normalized; steering probabilities are divided
    out by the caller (the steering module), not here.
    """
    if state.dim != basis.dim:
        raise DimensionMismatch(f"state dimension {state.dim} != basis dimension {basis.dim}")
    p = basis.vectors.conj().T @ state.matrix @ basis.vectors
    return float(np.abs(p).sum() - np.abs(np.diagonal(p)).sum())


def coherence_bloch(b, n) -> float:
    """Qubit coherence |b x n| of Bloch vector b in the basis along axis n."""
    b = np.asarray(b, dtype=float)
    n = np.asarray(n, dtype=float)
    if not (np.isfinite(b).all() and np.isfinite(n).all()):
        raise NotFinite(f"Bloch vector and axis must be finite, got {b.tolist()} and {n.tolist()}")
    n_norm = np.linalg.norm(n)
    if abs(n_norm - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxis(f"|n| = {n_norm:.12f} deviates from 1 beyond {UNIT_AXIS_TOL:.0e}")
    return float(np.linalg.norm(np.cross(b, n)))
