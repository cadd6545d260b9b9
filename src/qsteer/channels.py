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
    ParameterOutOfRange,
)
from .qcore import (
    Basis,
    DensityMatrix,
    PAULIS,
    dag,
    validate_density,
)
from .steering import _PAULI_STACK, validate_povm_element

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]
    label: str = ""

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[1]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a single-system density matrix."""
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for e in self.kraus_ops:
            out += e @ rho @ dag(e)
        return out


def kraus_channel(ops, label: str = "") -> KrausChannel:
    """Bundle Kraus operators, checking completeness sum E_i^dag E_i = 1."""
    ops = tuple(np.asarray(e, dtype=complex) for e in ops)
    d = ops[0].shape[1]
    total = sum(dag(e) @ e for e in ops)
    dev = np.abs(total - np.eye(d)).max()
    if dev > COMPLETENESS_TOL:
        raise IncompletePOVM(
            f"Kraus completeness violated: max |sum E^dag E - 1| = {dev:.3e} exceeds {COMPLETENESS_TOL:.0e}"
        )
    return KrausChannel(kraus_ops=ops, label=label)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Amplitude damping: |1> decays to |0> with probability gamma.

    Kraus operators:
        E0 = |0><0| + sqrt(1-gamma) |1><1|
        E1 = sqrt(gamma) |0><1|
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterOutOfRange(f"gamma = {gamma!r} outside [0, 1]")
    e0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    e1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return kraus_channel([e0, e1], label=f"amplitude-damping({gamma})")


def unital_pauli(e0: float, e1: float, e2: float, e3: float) -> KrausChannel:
    """Random-Pauli unital channel with Kraus operators sqrt(e_i) sigma_i.

    The Bloch action is a pure contraction (b1, b2, b3) -> (p1 b1, p2 b2,
    p3 b3) with p1 = e0 + e1 - e2 - e3 and cyclic analogues; the maximally
    mixed state is a fixed point.
    """
    es = np.array([e0, e1, e2, e3], dtype=float)
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
    F_k = sum_a |v_ka><v_ka| gives E_ka = |k><v_ka|.
    """
    elements = [validate_povm_element(f) for f in povm]
    d = basis.dim
    if len(elements) != d:
        raise DimensionMismatch(f"need one POVM element per basis ket: got {len(elements)} for dimension {d}")
    total = sum(elements)
    dev = np.abs(total - np.eye(elements[0].shape[0])).max()
    if dev > COMPLETENESS_TOL:
        raise IncompletePOVM(
            f"POVM incomplete: max |sum F_k - 1| = {dev:.3e} exceeds {COMPLETENESS_TOL:.0e}"
        )
    ops = []
    for k, f in enumerate(elements):
        w, v = np.linalg.eigh((f + dag(f)) / 2)
        for a in range(len(w)):
            if w[a] > 1e-14:
                ops.append(np.sqrt(w[a]) * np.outer(basis.vectors[:, k], v[:, a].conj()))
    return kraus_channel(ops, label="semi-classical")


def dephasing(basis: Basis) -> KrausChannel:
    """Semi-classical channel that measures projectively in the given basis."""
    projectors = [np.outer(basis.vectors[:, k], basis.vectors[:, k].conj()) for k in range(basis.dim)]
    return semi_classical(basis, projectors)


def apply_on_b(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply a channel to Bob's side: sum_i (1 x E_i) rho (1 x E_i^dag)."""
    if not state.is_bipartite:
        raise DimensionMismatch(f"need a bipartite state, got dims {state.dims}")
    da, db = state.dims
    if channel.dim != db:
        raise DimensionMismatch(f"channel dimension {channel.dim} != Bob dimension {db}")
    eye_a = np.eye(da)
    out = np.zeros_like(state.matrix)
    for e in channel.kraus_ops:
        u = np.kron(eye_a, e)
        out += u @ state.matrix @ dag(u)
    return validate_density(out, state.dims)


def apply_on_a(state: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply a channel to Alice's side: sum_i (E_i x 1) rho (E_i^dag x 1)."""
    if not state.is_bipartite:
        raise DimensionMismatch(f"need a bipartite state, got dims {state.dims}")
    da, db = state.dims
    if channel.dim != da:
        raise DimensionMismatch(f"channel dimension {channel.dim} != Alice dimension {da}")
    eye_b = np.eye(db)
    out = np.zeros_like(state.matrix)
    for e in channel.kraus_ops:
        u = np.kron(e, eye_b)
        out += u @ state.matrix @ dag(u)
    return validate_density(out, state.dims)


def bloch_affine(channel: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch action (Q, c) of a qubit channel: v -> Q v + c.

    Q_jk = tr(sigma_j E(sigma_k)) / 2 and c_j = tr(sigma_j E(1)) / 2, one contraction over the Kraus stack.
    """
    if channel.dim != 2:
        raise DimensionMismatch("Bloch action is defined for qubit channels only")
    ops = np.array(channel.kraus_ops)
    r = 0.5 * np.real(np.einsum("jab,ibc,kcd,iad->jk", _PAULI_STACK[1:], ops, _PAULI_STACK, ops.conj()))
    return r[:, 1:], r[:, 0]


def apply_on_b_pauli(theta: np.ndarray, channels) -> np.ndarray:
    """Pauli forms (len(channels), 4, 4) of a two-qubit state after each qubit channel on Bob's side.

    With the Bloch action v -> Q v + c, [[1, b^T], [a, T]] maps to theta B^T =
    [[1, (Q b + c)^T], [a, T Q^T + a c^T]], B = [[1, 0], [c, Q]]; Alice's column is copied.
    """
    q, c = (np.array(x) for x in zip(*(bloch_affine(ch) for ch in channels)))
    out = np.empty((len(q), 4, 4))
    out[:, :, 0] = theta[:, 0]
    out[:, :, 1:] = theta[:, 1:] @ q.transpose(0, 2, 1) + theta[:, :1] * c[:, None, :]
    return out
