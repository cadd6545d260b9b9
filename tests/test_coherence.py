import numpy as np
import pytest

from qsteer.coherence import coherence_bloch, coherence_l1
from qsteer.errors import DimensionMismatch, NonUnitAxis, NotFinite
from qsteer.qcore import Basis, eigen_hermitian, qubit_state, validate_density
from qsteer.rand import random_pure_ket


def _computational(d):
    return Basis(vectors=np.eye(d, dtype=complex))


def test_plus_state_has_unit_coherence():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert coherence_l1(validate_density(plus, [2]), _computational(2)) == pytest.approx(1.0)


def test_diagonal_state_has_zero_coherence():
    st = validate_density(np.diag([0.7, 0.3]), [2])
    assert coherence_l1(st, _computational(2)) == pytest.approx(0.0, abs=1e-14)


def test_maximally_coherent_qutrit():
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    st = validate_density(np.outer(psi, psi.conj()), [3])
    assert coherence_l1(st, _computational(3)) == pytest.approx(2.0, abs=1e-12)


def test_dimension_mismatch():
    st = validate_density(np.eye(2) / 2, [2])
    with pytest.raises(DimensionMismatch):
        coherence_l1(st, _computational(3))


def test_bloch_collinear():
    assert coherence_bloch([0, 0, 0.5], [0, 0, 1]) == pytest.approx(0.0)


def test_bloch_orthogonal():
    assert coherence_bloch([0.5, 0, 0], [0, 0, 1]) == pytest.approx(0.5)


def test_bloch_needs_unit_axis():
    with pytest.raises(NonUnitAxis):
        coherence_bloch([0.5, 0, 0], [0, 0, 0.9])
    # A NaN vector or axis is an input error, not a NaN coherence.
    with pytest.raises(NotFinite):
        coherence_bloch([np.nan, 0, 0], [0, 0, 1])
    with pytest.raises(NotFinite):
        coherence_bloch([0.5, 0, 0], [np.nan, 0, 1])


def _basis_along(n):
    # Independent eigenbasis of n.sigma built from spherical angles.
    theta = np.arccos(np.clip(n[2], -1, 1))
    phi = np.arctan2(n[1], n[0])
    up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    down = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    return Basis(vectors=np.column_stack([up, down]))


def test_matrix_and_bloch_routes_agree(rng):
    # Geometric identity: the l1 coherence of a qubit equals |b x n|.
    for _ in range(1000):
        b = rng.standard_normal(3)
        b *= rng.uniform(0, 1) / np.linalg.norm(b)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        st = validate_density(qubit_state(b), [2])
        assert abs(coherence_l1(st, _basis_along(n)) - coherence_bloch(b, n)) <= 1e-10


def test_coherence_bounded_by_dimension(rng):
    for d in (2, 3):
        basis = _computational(d)
        top = 0.0
        for _ in range(2000):
            psi = random_pure_ket(rng, d)
            st = validate_density(np.outer(psi, psi.conj()), [d])
            c = coherence_l1(st, basis)
            assert c <= d - 1 + 1e-12
            top = max(top, c)
        # The bound is attained only near the maximally coherent state.
        psi = np.ones(d, dtype=complex) / np.sqrt(d)
        st = validate_density(np.outer(psi, psi.conj()), [d])
        assert coherence_l1(st, basis) == pytest.approx(d - 1, abs=1e-12)
        assert top <= d - 1 + 1e-12


def test_phase_regauging_invariance(rng):
    for _ in range(50):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (g + g.conj().T) / 2
        _, basis = eigen_hermitian(h)
        psi = random_pure_ket(rng, 3)
        st = validate_density(np.outer(psi, psi.conj()), [3])
        base = coherence_l1(st, basis)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        rephased = Basis(vectors=basis.vectors * phases)
        assert abs(coherence_l1(st, rephased) - base) <= 1e-12
