import numpy as np
import pytest

from qsteer.errors import (
    NonUnitAxis,
    NotBipartite,
    NotFinite,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    WrongDimension,
)
from qsteer.qcore import (
    bloch_basis,
    bloch_vector,
    eigen_hermitian,
    partial_trace,
    pauli_compose,
    pauli_decompose,
    qubit_state,
    validate_density,
    validate_pauli_forms,
)
from qsteer.rand import random_density_matrix, random_two_qubit
from qsteer.states import rho_p, werner

# Independent Pauli matrices for oracle computations in this file.
S = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_validate_maximally_mixed():
    st = validate_density(np.eye(4) / 4, [2, 2])
    assert st.dims == (2, 2)
    assert st.is_bipartite


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate_density(np.diag([1.5, -0.5]), [2])


def test_validate_rejects_non_hermitian():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 0.1
    with pytest.raises(NotHermitian):
        validate_density(m, [2])


def test_validate_rejects_wrong_trace():
    with pytest.raises(NotUnitTrace):
        validate_density(np.eye(2), [2])


def test_validate_rejects_bad_shape():
    with pytest.raises(WrongDimension):
        validate_density(np.eye(4) / 4, [2])
    with pytest.raises(WrongDimension):
        validate_density(np.eye(32) / 32, [4, 8])


def test_validate_werner_hand_matrix():
    # Explicit matrix for singlet fraction 0.7, written out by hand.
    p = 0.7
    hand = np.array(
        [
            [(1 - p) / 4, 0, 0, 0],
            [0, (1 + p) / 4, -p / 2, 0],
            [0, -p / 2, (1 + p) / 4, 0],
            [0, 0, 0, (1 - p) / 4],
        ],
        dtype=complex,
    )
    st = validate_density(hand, [2, 2])
    np.testing.assert_allclose(st.matrix, werner(p).state.matrix, atol=1e-14)


def test_partial_trace_product_state():
    st = validate_density(np.diag([1.0, 0, 0, 0]), [2, 2])  # |00><00|
    reduced = partial_trace(st, keep=1)
    np.testing.assert_allclose(reduced.matrix, np.diag([1.0, 0]), atol=1e-14)
    reduced_a = partial_trace(st, keep=0)
    np.testing.assert_allclose(reduced_a.matrix, np.diag([1.0, 0]), atol=1e-14)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    st = validate_density(np.outer(bell, bell.conj()), [2, 2])
    reduced = partial_trace(st, keep=1)
    np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_rho_p_bob_marginal():
    # Bob's Bloch vector must be (p cos(theta), 0, 0).
    p, theta = 0.5, 0.1 * np.pi
    reduced = partial_trace(rho_p(p, theta).state, keep=1)
    b = [np.real(np.trace(reduced.matrix @ S[i])) for i in (1, 2, 3)]
    np.testing.assert_allclose(b, [p * np.cos(theta), 0, 0], atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    for _ in range(50):
        st = random_density_matrix(rng, (2, 3))
        for keep in (0, 1):
            assert abs(np.trace(partial_trace(st, keep).matrix) - 1) <= 1e-10


def test_partial_trace_needs_bipartite():
    st = validate_density(np.eye(2) / 2, [2])
    with pytest.raises(NotBipartite):
        partial_trace(st, keep=0)


def test_eigen_diagonal():
    w, basis = eigen_hermitian(np.diag([0.7, 0.3]))
    np.testing.assert_allclose(w, [0.7, 0.3], atol=1e-14)
    np.testing.assert_allclose(np.abs(basis.vectors), np.eye(2), atol=1e-12)
    assert not basis.degenerate


def test_eigen_degenerate_flag():
    _, basis = eigen_hermitian(np.eye(2) / 2)
    assert basis.degenerate


def test_eigen_hand_decomposition():
    # (1/2)(1 + 0.6 sigma_x) has eigenvalues 0.8, 0.2 with |+>, |-> vectors.
    h = (S[0] + 0.6 * S[1]) / 2
    w, basis = eigen_hermitian(h)
    np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-14)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(plus @ basis.vectors[:, 0]) - 1) <= 1e-12
    assert abs(abs(minus @ basis.vectors[:, 1]) - 1) <= 1e-12


def test_eigen_reconstruction_random(rng):
    for d in (2, 3, 4):
        for _ in range(50):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            w, basis = eigen_hermitian(h)
            v = basis.vectors
            np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-9)
            assert all(w[i] >= w[i + 1] - 1e-12 for i in range(d - 1))


def test_eigen_phase_convention(rng):
    for _ in range(20):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        _, basis = eigen_hermitian((g + g.conj().T) / 2)
        for k in range(3):
            v = basis.vectors[:, k]
            top = v[np.argmax(np.abs(v))]
            assert abs(top.imag) <= 1e-12 and top.real > 0


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigen_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    # Non-finite input is an input error, not a NaN result: a NaN entry
    # passed the Hermiticity check's `>`, and the qubit helpers built NaN
    # states and bases.
    with pytest.raises(NotFinite):
        eigen_hermitian(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(NotFinite):
        qubit_state([np.nan, 0.0, 0.0])
    with pytest.raises(NotFinite):
        bloch_basis([np.inf, 0.0, 1.0])
    with pytest.raises(NotFinite):
        bloch_vector(np.full((2, 2), np.nan))


def test_pauli_decompose_identity():
    th = pauli_decompose(validate_density(np.eye(4) / 4, [2, 2])).theta
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    np.testing.assert_allclose(th, expected, atol=1e-14)


def test_pauli_decompose_werner_oracle():
    # Independent trace computation of every coefficient.
    p = 0.55
    st = werner(p).state
    th = pauli_decompose(st).theta
    for i in range(4):
        for j in range(4):
            direct = np.real(np.trace(st.matrix @ np.kron(S[i], S[j])))
            assert abs(th[i, j] - direct) <= 1e-12
    np.testing.assert_allclose(th[1:, 1:], -p * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(th[0, 1:], 0, atol=1e-12)
    np.testing.assert_allclose(th[1:, 0], 0, atol=1e-12)


def test_pauli_decompose_rho_p_bob_row():
    p, theta = 0.7, 0.3
    th = pauli_decompose(rho_p(p, theta).state)
    np.testing.assert_allclose(th.b, [p * np.cos(theta), 0, 0], atol=1e-12)


def test_pauli_decompose_wrong_dims():
    with pytest.raises(WrongDimension):
        pauli_decompose(validate_density(np.eye(2) / 2, [2]))


def test_pauli_compose_identity_pattern():
    th = np.zeros((4, 4))
    th[0, 0] = 1
    st = pauli_compose(th)
    np.testing.assert_allclose(st.matrix, np.eye(4) / 4, atol=1e-14)


def test_pauli_round_trip(rng):
    for _ in range(100):
        st = random_two_qubit(rng)
        back = pauli_compose(pauli_decompose(st))
        assert np.abs(back.matrix - st.matrix).max() <= 1e-10


def test_pauli_compose_unphysical():
    th = np.zeros((4, 4))
    th[0, 0] = 1
    th[1, 1] = 2.0
    with pytest.raises(NotPSD):
        pauli_compose(th)


def test_validate_pauli_forms_batched(rng):
    # The batched check accepts valid forms and raises validate_density's
    # exceptions when any one row is non-finite or not positive.
    stack = np.array([pauli_decompose(random_two_qubit(rng)).theta for _ in range(5)])
    validate_pauli_forms(stack)
    bad = stack.copy()
    bad[3, 1, 1] = 2.0
    with pytest.raises(NotPSD):
        validate_pauli_forms(bad)
    bad[3, 1, 1] = np.nan
    with pytest.raises(NotFinite):
        validate_pauli_forms(bad)


def _axis_operator(n):
    return n[0] * S[1] + n[1] * S[2] + n[2] * S[3]


def test_bloch_basis_matches_the_eigensolver_off_the_equator(rng):
    # The closed-form kets equal eigen_hermitian's phase-fixed eigenvectors
    # of n.sigma (7.8e-16 measured over 20,000 axes); bloch_basis takes the
    # axis unnormalized.
    axes = rng.standard_normal((2000, 3)) * rng.uniform(0.1, 10.0, (2000, 1))
    for n in axes:
        unit = n / np.linalg.norm(n)
        assert abs(unit[2]) > 1e-6
        basis = bloch_basis(n)
        _, ref = eigen_hermitian(_axis_operator(unit))
        assert not basis.degenerate
        np.testing.assert_allclose(basis.vectors, ref.vectors, rtol=0, atol=1e-15)


def test_bloch_basis_poles_are_exact():
    np.testing.assert_array_equal(bloch_basis([0.0, 0.0, 1.0]).vectors, np.eye(2))
    np.testing.assert_array_equal(bloch_basis([0.0, 0.0, 2.5]).vectors, np.eye(2))
    np.testing.assert_array_equal(bloch_basis([0.0, 0.0, -1.0]).vectors, [[0, 1], [1, 0]])


def test_bloch_basis_on_the_equator(rng):
    # Both entries of each ket have modulus 1/sqrt(2), so the phase rule's
    # largest entry is a tie: each column equals the eigensolver's up to a
    # phase, and one of its largest entries is real and positive.
    for phi in np.concatenate([np.linspace(0, 2 * np.pi, 24, endpoint=False), rng.uniform(0, 2 * np.pi, 100)]):
        n = np.array([np.cos(phi), np.sin(phi), 0.0])
        vecs = bloch_basis(n).vectors
        _, ref = eigen_hermitian(_axis_operator(n))
        np.testing.assert_allclose(np.abs(np.einsum("ik,ik->k", ref.vectors.conj(), vecs)), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), rtol=0, atol=1e-15)
        for k in range(2):
            mag = np.abs(vecs[:, k])
            top = vecs[mag >= mag.max() - 1e-15, k]
            assert any(v.imag == 0 and v.real > 0 for v in top)


def test_bloch_basis_rejects_zero_and_non_finite_axes():
    with pytest.raises(NonUnitAxis):
        bloch_basis([0.0, 0.0, 0.0])
    for bad in ([np.nan, 0.0, 1.0], [0.0, -np.inf, 0.0]):
        with pytest.raises(NotFinite):
            bloch_basis(bad)
