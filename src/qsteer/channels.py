"""Qubit channels as Kraus families and their one-sided application.

Constructors for amplitude damping, unital Pauli mixtures, and
semi-classical (measure-and-prepare) channels, plus application of a
channel to either side of a bipartite state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompletePOVM,
    NotFinite,
    ParameterOutOfRange,
)
from .qcore import (
    Basis,
    DensityMatrix,
    PAULIS,
    dag,
    validate_density,
)
from .steering import validate_povm_element

COMPLETENESS_TOL = 1e-10
_PAULI_STACK = np.array(PAULIS)


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map: its k Kraus operators E_i as one complex (k, d_out, d_in) array."""

    kraus_ops: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        return self.kraus_ops.shape[2]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a single-system density matrix: sum_i E_i rho E_i^dag, one contraction."""
        return np.einsum("iab,bc,idc->ad", self.kraus_ops, rho, self.kraus_ops.conj())


def kraus_channel(ops, label: str = "") -> KrausChannel:
    """Stack Kraus operators into one (k, d_out, d_in) array; completeness sum E_i^dag E_i = 1 is one product.

    Raises DimensionMismatch for an empty or ragged family and NotFinite for a non-finite entry.
    The stack is read-only, so the check holds for the channel's life.
    """
    try:
        ops = np.array(list(ops), dtype=complex)
    except ValueError:
        raise DimensionMismatch("Kraus operators must be numeric matrices of one shape") from None
    if ops.ndim != 3 or ops.size == 0:
        raise DimensionMismatch(f"need a non-empty stack of Kraus matrices, got shape {ops.shape}")
    if not np.isfinite(ops).all():
        raise NotFinite("Kraus operators have non-finite entries")
    flat = ops.reshape(-1, ops.shape[2])
    dev = np.abs(flat.conj().T @ flat - np.eye(ops.shape[2])).max()
    if dev > COMPLETENESS_TOL:
        raise IncompletePOVM(
            f"Kraus completeness violated: max |sum E^dag E - 1| = {dev:.3e} exceeds {COMPLETENESS_TOL:.0e}"
        )
    ops.flags.writeable = False
    return KrausChannel(kraus_ops=ops, label=label)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude damping: |1> decays to |0> with probability gamma.

    Kraus operators:
        E0 = |0><0| + sqrt(1-gamma) |1><1|
        E1 = sqrt(gamma) |0><1|
    """
    if not np.isfinite(gamma):
        raise NotFinite(f"gamma = {gamma!r} must be finite")
    if not 0.0 <= gamma <= 1.0:
        raise ParameterOutOfRange(f"gamma = {gamma!r} outside [0, 1]")
    ops = [[[1, 0], [0, np.sqrt(1 - gamma)]], [[0, np.sqrt(gamma)], [0, 0]]]
    return kraus_channel(ops, label=f"amplitude-damping({gamma})")


def unital_pauli(e0: float, e1: float, e2: float, e3: float) -> KrausChannel:
    """Random-Pauli unital channel with Kraus operators sqrt(e_i) sigma_i.

    The Bloch action is a pure contraction (b1, b2, b3) -> (p1 b1, p2 b2,
    p3 b3) with p1 = e0 + e1 - e2 - e3 and cyclic analogues; the maximally
    mixed state is a fixed point.
    """
    es = np.array([e0, e1, e2, e3], dtype=float)
    if not np.isfinite(es).all():
        raise NotFinite(f"mixture weights must be finite, got {es.tolist()}")
    if es.min() < -1e-15:
        raise ParameterOutOfRange(f"mixture weights must be nonnegative, got {es.tolist()}")
    if abs(es.sum() - 1.0) > 1e-12:
        raise ParameterOutOfRange(f"mixture weights sum to {es.sum():.15f}, not 1 within 1e-12")
    ops = [np.sqrt(e) * s for e, s in zip(es, PAULIS) if e > 0]
    return kraus_channel(ops, label=f"unital-pauli({e0:.3g},{e1:.3g},{e2:.3g},{e3:.3g})")


def semi_classical(basis: Basis, povm) -> KrausChannel:
    """Measure-and-prepare channel rho -> sum_k tr(F_k rho) |k><k|.

    |k> are the basis kets and {F_k} a POVM on the input space. Every output
    is diagonal in the given basis, so the channel destroys all coherence
    there. The Kraus family is built from rank-one pieces of each F_k:
    F_k = sum_a |v_ka><v_ka| gives E_ka = |k><v_ka|, so sum_a E_ka^dag E_ka = F_k
    and kraus_channel's completeness check is the POVM's.
    """
    elements = [validate_povm_element(f) for f in povm]
    d = basis.dim
    if len(elements) != d:
        raise DimensionMismatch(f"need one POVM element per basis ket: got {len(elements)} for dimension {d}")
    ops = []
    for k, f in enumerate(elements):
        w, v = np.linalg.eigh((f + dag(f)) / 2)
        ops += [np.sqrt(w[a]) * np.outer(basis.vectors[:, k], v[:, a].conj()) for a in np.flatnonzero(w > 1e-14)]
    return kraus_channel(ops, label="semi-classical")


def dephasing(basis: Basis) -> KrausChannel:
    """Semi-classical channel that measures projectively in the given basis."""
    projectors = [np.outer(basis.vectors[:, k], basis.vectors[:, k].conj()) for k in range(basis.dim)]
    return semi_classical(basis, projectors)


def _apply_local(state: DensityMatrix, channel: KrausChannel, side: int, subscripts: str) -> DensityMatrix:
    # One contraction of the Kraus stack with rho[(a, b), (c, d)] on the given side (0 Alice, 1 Bob).
    if not state.is_bipartite:
        raise DimensionMismatch(f"need a bipartite state, got dims {state.dims}")
    who, d = ("Alice", "Bob")[side], state.dims[side]
    if channel.kraus_ops.shape[1:] != (d, d):
        raise DimensionMismatch(f"Kraus shape {channel.kraus_ops.shape[1:]} does not fit {who} dimension {d}")
    e = channel.kraus_ops
    out = np.einsum(subscripts, e, state.matrix.reshape(state.dims * 2), e.conj())
    return validate_density(out.reshape(state.matrix.shape), state.dims)


def apply_on_b(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply a channel to Bob's side: sum_i (1 x E_i) rho (1 x E_i^dag), one einsum over the Kraus stack."""
    return _apply_local(state, channel, 1, "ibx,axcy,idy->abcd")


def apply_on_a(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply a channel to Alice's side: sum_i (E_i x 1) rho (E_i^dag x 1), one einsum over the Kraus stack."""
    return _apply_local(state, channel, 0, "iax,xbyd,icy->abcd")


def bloch_affine(channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch action (Q, c) of a qubit channel: v -> Q v + c; the one-row case of bloch_stack."""
    q, c = bloch_stack([channel])
    return q[0], c[0]


def bloch_stack(channels) -> tuple[np.ndarray, np.ndarray]:
    """(Q, c) of qubit channels as one (N, 3, 3) / (N, 3) pair: Q_njk = tr(sigma_j E_n(sigma_k)) / 2 and
    c_nj = tr(sigma_j E_n(1)) / 2 from one einsum over the Kraus arrays zero-padded to (N, k_max, 2, 2)."""
    if any(ch.kraus_ops.shape[1:] != (2, 2) for ch in channels):
        raise DimensionMismatch("Bloch action is defined for qubit channels only")
    ops = np.zeros((len(channels), max((len(ch.kraus_ops) for ch in channels), default=0), 2, 2), dtype=complex)
    for row, ch in zip(ops, channels):
        row[: len(ch.kraus_ops)] = ch.kraus_ops
    r = 0.5 * np.real(np.einsum("jab,nibc,kcd,niad->njk", _PAULI_STACK[1:], ops, _PAULI_STACK, ops.conj()))
    return r[:, :, 1:], r[:, :, 0]


def damping_bloch(gammas) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Q, c) of amplitude damping, one row per gamma, with no Kraus channel built:
    Q = diag(sqrt(1-gamma), sqrt(1-gamma), 1-gamma), c = gamma z_hat. All gammas are checked at once."""
    g = np.asarray(gammas, dtype=float)
    if not np.isfinite(g).all():
        raise NotFinite(f"damping strengths must be finite, got {g.tolist()}")
    if ((g < 0) | (g > 1)).any():
        raise ParameterOutOfRange(f"damping strengths must lie in [0, 1], got {g.tolist()}")
    q = np.sqrt(1 - g)[..., None, None] * np.diag([1.0, 1.0, 0.0])
    q[..., 2, 2] = 1 - g
    return q, g[..., None] * [0.0, 0.0, 1.0]


def apply_on_b_pauli(theta: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Forms (N,) + theta.shape after each qubit channel v -> Q_n v + c_n on Bob's side.

    theta's columns are Bob's Pauli index. [[1, b^T], [a, T]] maps to theta B^T, B = [[1, 0], [c, Q]]:
    a -> a (copied), b -> Q b + c, T -> T Q^T + a c^T. Rows (X_0, .., X_3)[i, j] of Bob's Pauli blocks
    X_nu = tr_B[(1 x sigma_nu) rho] map by the same rule.
    """
    out = np.empty((len(q),) + theta.shape, dtype=theta.dtype)
    out[:, :, 0] = theta[:, 0]
    out[:, :, 1:] = theta[:, 1:] @ q.transpose(0, 2, 1) + theta[:, :1] * c[:, None, :]
    return out
