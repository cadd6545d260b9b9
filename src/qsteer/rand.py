"""Seeded random generators for states, unitaries and channels.

Used by the verification suite and the tests; everything is driven by an
explicit numpy Generator so reports are reproducible.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, kraus_channel, unital_pauli
from .errors import SingularMarginal
from .qcore import Basis, DensityMatrix, partial_trace, validate_density
from .steering import canonical_transform


def random_pure_ket(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR with the phase-of-R correction."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def random_density_matrix(rng: np.random.Generator, dims, rank: int | None = None) -> DensityMatrix:
    """Hilbert-Schmidt-ish random state: G G^dag normalized."""
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.real(np.trace(rho))
    return validate_density(rho, dims)


def random_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    return random_density_matrix(rng, (2, 2))


def random_bob_filtered(rng: np.random.Generator, dims, spectrum=None) -> DensityMatrix:
    """Random state conjugated on Bob by F and renormalized: rho_B = I/d_B, or diag(spectrum) normalized.

    F = rho_B^(-1/2) whitens Bob's marginal; with a spectrum s,
    F = diag(sqrt(s)) U^dag rho_B^(-1/2), U holding rho_B's eigenvectors,
    so F rho_B F^dag = diag(s). Equal entries of s give degenerate blocks.
    """
    state = random_density_matrix(rng, dims)
    w, u = np.linalg.eigh(partial_trace(state, 1).matrix)
    f = (u * w**-0.5) @ u.conj().T
    if spectrum is not None:
        f = (np.sqrt(np.asarray(spectrum, dtype=float))[:, None] * u.conj().T) @ f
    op = np.kron(np.eye(state.dims[0]), f)
    out = op @ state.matrix @ op.conj().T
    return validate_density(out / np.real(np.trace(out)), state.dims)


def random_canonical(rng: np.random.Generator) -> DensityMatrix:
    """Random two-qubit state mapped to its canonical (a = 0) form."""
    for _ in range(50):
        try:
            return canonical_transform(random_two_qubit(rng))
        except SingularMarginal:
            continue
    raise SingularMarginal("could not draw a state with invertible Alice marginal")


def random_basis(rng: np.random.Generator, d: int) -> Basis:
    return Basis(vectors=random_unitary(rng, d))


def random_classical(rng: np.random.Generator, da: int = 2, db: int = 2) -> DensityMatrix:
    """Random zero-discord state sum_i p_i rho_i^A x |xi_i><xi_i|."""
    from .states import classical_state  # local import avoids a cycle

    weights = rng.dirichlet(np.ones(db))
    alice = [random_density_matrix(rng, (da,)) for _ in range(db)]
    basis = random_basis(rng, db)
    return classical_state(weights, alice, basis).state


def random_unital_channel(rng: np.random.Generator) -> KrausChannel:
    """Random mixture of Pauli conjugations sandwiched between unitaries."""
    es = rng.dirichlet(np.ones(4))
    base = unital_pauli(*es)
    u = random_unitary(rng, 2)
    v = random_unitary(rng, 2)
    ops = [u @ e @ v for e in base.kraus_ops]
    return kraus_channel(ops, label="random-unital")


def random_channel(rng: np.random.Generator, d: int = 2, env: int = 2) -> KrausChannel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    big = random_unitary(rng, d * env)
    iso = big[:, :d].reshape(d, env, d)
    ops = [iso[:, k, :] for k in range(env)]
    return kraus_channel(ops, label="random-cptp")


def random_povm(rng: np.random.Generator, d: int, n_out: int) -> list[np.ndarray]:
    """Random POVM: positive pieces whitened so they sum to the identity."""
    raw = []
    for _ in range(n_out):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    whiten = v @ np.diag(w**-0.5) @ v.conj().T
    return [whiten @ f @ whiten for f in raw]


def random_x_state(rng: np.random.Generator) -> DensityMatrix:
    """Random X-shaped two-qubit state (PSD by bounding the anti-diagonal)."""
    d = rng.dirichlet(np.ones(4))
    f1, f2 = rng.uniform(0, 0.95, 2)
    ph1, ph2 = rng.uniform(0, 2 * np.pi, 2)
    z1 = f1 * np.sqrt(d[0] * d[3]) * np.exp(1j * ph1)
    z2 = f2 * np.sqrt(d[1] * d[2]) * np.exp(1j * ph2)
    rho = np.diag(d).astype(complex)
    rho[0, 3], rho[3, 0] = z1, np.conj(z1)
    rho[1, 2], rho[2, 1] = z2, np.conj(z2)
    return validate_density(rho, (2, 2))


def random_product(rng: np.random.Generator, da: int = 2, db: int = 2) -> DensityMatrix:
    ra = random_density_matrix(rng, (da,))
    rb = random_density_matrix(rng, (db,))
    return validate_density(np.kron(ra.matrix, rb.matrix), (da, db))

