import numpy as np
import pytest

from qsteer.channels import (
    amplitude_damping,
    apply_on_a,
    apply_on_b,
    apply_on_b_pauli,
    bloch_affine,
    bloch_stack,
    damping_bloch,
    dephasing,
    kraus_channel,
    semi_classical,
    unital_pauli,
)
from qsteer.errors import DimensionMismatch, IncompletePOVM, NotFinite, ParameterOutOfRange
from qsteer.msc import msc_two_qubit
from qsteer.qcore import Basis, KET_PLUS, ket_dm, pauli_decompose, qubit_state
from qsteer.rand import (
    random_channel,
    random_density_matrix,
    random_povm,
    random_two_qubit,
    random_unital_channel,
    random_unitary,
)
from qsteer.states import damped_classical_msc, rho_c


def _apply_by_hand(ops, rho):
    return sum(e @ rho @ e.conj().T for e in ops)


def test_damping_zero_is_identity(rng):
    ch = amplitude_damping(0.0)
    for _ in range(10):
        rho = random_density_matrix(rng, (2,)).matrix
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)


def test_damping_one_maps_to_ground(rng):
    ch = amplitude_damping(1.0)
    for _ in range(10):
        rho = random_density_matrix(rng, (2,)).matrix
        np.testing.assert_allclose(ch.apply(rho), np.diag([1.0, 0.0]), atol=1e-12)


def test_damping_half_on_excited():
    # Hand Kraus sum: E0 |1><1| E0^dag + E1 |1><1| E1^dag at gamma = 1/2.
    out = amplitude_damping(0.5).apply(np.diag([0.0, 1.0]))
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_damping_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        amplitude_damping(1.2)
    with pytest.raises(ParameterOutOfRange):
        amplitude_damping(-0.1)
    # Finiteness is checked before the range, which NaN also fails.
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(NotFinite):
            amplitude_damping(gamma)


def test_kraus_completeness_all_constructors(rng):
    channels = [
        amplitude_damping(0.3),
        unital_pauli(0.4, 0.3, 0.2, 0.1),
        dephasing(Basis(vectors=random_unitary(rng, 2))),
        semi_classical(Basis(vectors=random_unitary(rng, 2)), random_povm(rng, 2, 2)),
        random_channel(rng),
    ]
    for ch in channels:
        total = sum(e.conj().T @ e for e in ch.kraus_ops)
        assert np.abs(total - np.eye(ch.dim)).max() <= 1e-10


def test_kraus_rejects_incomplete():
    with pytest.raises(IncompletePOVM):
        kraus_channel([np.diag([1.0, 0.5])])
    # Non-finite, empty and ragged families are input errors, not passes or bare numpy errors.
    with pytest.raises(NotFinite):
        kraus_channel([np.diag([1.0, np.nan])])
    with pytest.raises(NotFinite):
        kraus_channel([np.diag([np.inf, 1.0])])
    for ops in ([], [np.eye(2), np.eye(3)], [np.eye(2)[0]], [[1.0]]):
        with pytest.raises(DimensionMismatch):
            kraus_channel(ops)
    # A NaN POVM element stops at its validation.
    with pytest.raises(NotFinite):
        semi_classical(Basis(vectors=np.eye(2, dtype=complex)), [np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])
    ch = kraus_channel([np.eye(2) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)])
    assert ch.kraus_ops.shape == (2, 2, 2) and ch.kraus_ops.dtype == complex
    # The checked stack is read-only, so a channel cannot be made incomplete after the check.
    with pytest.raises(ValueError):
        amplitude_damping(0.3).kraus_ops[1] = 0


def test_unital_identity():
    ch = unital_pauli(1, 0, 0, 0)
    rho = qubit_state([0.3, -0.2, 0.5])
    np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)


def test_unital_complete_depolarization(rng):
    ch = unital_pauli(0.25, 0.25, 0.25, 0.25)
    for _ in range(5):
        rho = random_density_matrix(rng, (2,)).matrix
        np.testing.assert_allclose(ch.apply(rho), np.eye(2) / 2, atol=1e-12)


def test_unital_bloch_contraction():
    # e = (1/2, 1/2, 0, 0) keeps x and kills y, z.
    q, c = bloch_affine(unital_pauli(0.5, 0.5, 0.0, 0.0))
    np.testing.assert_allclose(q, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(c, 0, atol=1e-12)
    # General weights follow the signed-sum rule.
    e = (0.4, 0.3, 0.2, 0.1)
    q, _ = bloch_affine(unital_pauli(*e))
    expected = [
        e[0] + e[1] - e[2] - e[3],
        e[0] - e[1] + e[2] - e[3],
        e[0] - e[1] - e[2] + e[3],
    ]
    np.testing.assert_allclose(q, np.diag(expected), atol=1e-12)


def test_unital_parameter_checks():
    with pytest.raises(ParameterOutOfRange):
        unital_pauli(0.5, 0.6, 0.0, 0.0)
    with pytest.raises(ParameterOutOfRange):
        unital_pauli(-0.1, 0.6, 0.3, 0.2)
    # A NaN weight fails every comparison, so it must be caught before them.
    for es in ((np.nan, 0, 0, 1), (0, 0, 0, np.nan), (np.inf, 0, 0, 1)):
        with pytest.raises(NotFinite):
            unital_pauli(*es)


def test_dephasing_plus_state():
    ch = dephasing(Basis(vectors=np.eye(2, dtype=complex)))
    np.testing.assert_allclose(ch.apply(ket_dm(KET_PLUS)), np.eye(2) / 2, atol=1e-12)


def test_semi_classical_output_diagonal(rng):
    vecs = random_unitary(rng, 2)
    ch = semi_classical(Basis(vectors=vecs), random_povm(rng, 2, 2))
    for _ in range(10):
        out = ch.apply(random_density_matrix(rng, (2,)).matrix)
        in_basis = vecs.conj().T @ out @ vecs
        off = np.abs(in_basis).sum() - np.abs(np.diagonal(in_basis)).sum()
        assert off <= 1e-12


def test_semi_classical_matches_measure_and_prepare(rng):
    vecs = random_unitary(rng, 2)
    povm = random_povm(rng, 2, 2)
    ch = semi_classical(Basis(vectors=vecs), povm)
    for _ in range(10):
        rho = random_density_matrix(rng, (2,)).matrix
        direct = sum(
            np.real(np.trace(povm[k] @ rho)) * ket_dm(vecs[:, k]) for k in range(2)
        )
        np.testing.assert_allclose(ch.apply(rho), direct, atol=1e-12)


def test_semi_classical_kills_msc(rng):
    ch = semi_classical(Basis(vectors=random_unitary(rng, 2)), random_povm(rng, 2, 2))
    for _ in range(5):
        out = apply_on_b(random_two_qubit(rng), ch)
        assert msc_two_qubit(out).value <= 1e-8


def test_semi_classical_incomplete_povm(rng):
    with pytest.raises(IncompletePOVM):
        semi_classical(Basis(vectors=np.eye(2, dtype=complex)), [np.diag([0.5, 0.5]), np.diag([0.4, 0.4])])


def test_apply_on_b_identity_channel(rng):
    ch = amplitude_damping(0.0)
    st = random_two_qubit(rng)
    np.testing.assert_allclose(apply_on_b(st, ch).matrix, st.matrix, atol=1e-12)


def test_apply_on_b_oracle(rng):
    # Independent Kraus plumbing written out in the test.
    ch = amplitude_damping(0.35)
    st = random_two_qubit(rng)
    hand = _apply_by_hand([np.kron(np.eye(2), e) for e in ch.kraus_ops], st.matrix)
    np.testing.assert_allclose(apply_on_b(st, ch).matrix, hand, atol=1e-12)


def test_apply_on_a_oracle(rng):
    for da, db in ((2, 2), (2, 3), (3, 2)):
        ch = random_channel(rng, da)
        st = random_density_matrix(rng, (da, db))
        hand = _apply_by_hand([np.kron(e, np.eye(db)) for e in ch.kraus_ops], st.matrix)
        np.testing.assert_allclose(apply_on_a(st, ch).matrix, hand, atol=1e-12)


def test_apply_preserves_validity(rng):
    for _ in range(20):
        out = apply_on_b(random_two_qubit(rng), random_channel(rng))
        assert abs(np.trace(out.matrix) - 1) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9


def test_damping_on_classical_matches_closed_form():
    for t in (0.6, 0.75):
        for g in (0.2, 0.5, 0.9):
            out = apply_on_b(rho_c(t).state, amplitude_damping(g))
            assert msc_two_qubit(out).value == pytest.approx(damped_classical_msc(t, g), abs=1e-9)


def test_damping_on_classical_oracle_cross_check():
    # Independent brute-force grid agrees with the closed form.
    from qsteer.msc import msc_oracle

    out = apply_on_b(rho_c(0.75).state, amplitude_damping(0.5))
    assert msc_oracle(out, 10_000) == pytest.approx(damped_classical_msc(0.75, 0.5), abs=1e-3)


def test_alice_side_channels_never_increase_msc(rng):
    # Alice's local channel shrinks her steering power.
    for _ in range(15):
        st = random_two_qubit(rng)
        base = msc_two_qubit(st).value
        out = apply_on_a(st, random_channel(rng))
        assert msc_two_qubit(out).value <= base + 1e-6


def test_unital_on_bob_never_increases_msc(rng):
    for _ in range(15):
        st = random_two_qubit(rng)
        base = msc_two_qubit(st).value
        out = apply_on_b(st, random_unital_channel(rng))
        assert msc_two_qubit(out).value <= base + 1e-6


def test_pauli_action_matches_apply_on_b(rng):
    # theta -> theta B^T with B = [[1, 0], [c, Q]] from bloch_affine equals the
    # Kraus sum on Bob's side. Alice's column is copied exactly; the Kraus
    # route recomputes it with roundoff (up to 1.1e-15 measured), so the
    # comparison to 1e-15 covers the columns the channel acts on.
    channels = (
        [amplitude_damping(g) for g in (0.0, 0.3, 0.75, 1.0)]
        + [random_unital_channel(rng) for _ in range(3)]
        + [semi_classical(Basis(vectors=random_unitary(rng, 2)), random_povm(rng, 2, 2)) for _ in range(3)]
        + [random_channel(rng) for _ in range(3)]
    )
    for _ in range(20):
        s = random_two_qubit(rng)
        theta = pauli_decompose(s).theta
        out = apply_on_b_pauli(theta, *bloch_stack(channels))
        assert out.shape == (len(channels), 4, 4)
        for ch, th in zip(channels, out):
            ref = pauli_decompose(apply_on_b(s, ch)).theta
            assert np.array_equal(th[:, 0], theta[:, 0])
            assert np.abs(th[:, 1:] - ref[:, 1:]).max() <= 1e-15
            assert np.abs(th[:, 0] - ref[:, 0]).max() <= 4e-15


def test_pauli_stack_rows_equal_each_bloch_affine(rng):
    # One contraction over zero-padded Kraus arrays gives, row by row, the
    # same bits as each channel's Bloch action alone, whatever the mix of
    # 1-, 2-, 3- and 4-operator channels.
    channels = [
        unital_pauli(1, 0, 0, 0),
        amplitude_damping(0.4),
        unital_pauli(0.4, 0.3, 0.2, 0.1),
        random_channel(rng, 2, 3),
        random_unital_channel(rng),
        amplitude_damping(1.0),
        semi_classical(Basis(vectors=random_unitary(rng, 2)), random_povm(rng, 2, 2)),
        random_channel(rng, 2, 1),
    ]
    assert sorted({len(ch.kraus_ops) for ch in channels}) == [1, 2, 3, 4]
    # theta = 1 reads (Q, c) off exactly: row 0 is (1, c^T), the block below it Q^T.
    for ch, row in zip(channels, apply_on_b_pauli(np.eye(4), *bloch_stack(channels))):
        q, c = bloch_affine(ch)
        assert np.array_equal(row[0, 1:], c) and np.array_equal(row[1:, 1:], q.T)
    theta = pauli_decompose(random_two_qubit(rng)).theta
    for ch, row in zip(channels, apply_on_b_pauli(theta, *bloch_stack(channels))):
        assert np.array_equal(row, apply_on_b_pauli(theta, *bloch_stack([ch]))[0])


def test_pauli_stack_rejects_non_qubit_channel(rng):
    theta = pauli_decompose(random_two_qubit(rng)).theta
    for k in range(3):
        for other in (random_channel(rng, 3), kraus_channel([np.eye(3)[:, :2]])):
            channels = [amplitude_damping(0.3), amplitude_damping(0.6)]
            channels.insert(k, other)
            with pytest.raises(DimensionMismatch):
                apply_on_b_pauli(theta, *bloch_stack(channels))


def test_damping_bloch_equals_kraus_route():
    # The closed form Q = diag(sqrt(1-g), sqrt(1-g), 1-g), c = g z_hat equals
    # the Kraus pair's Bloch action row by row, endpoints g = 0 and 1 included
    # (2.2e-16 measured).
    gammas = np.linspace(0.0, 1.0, 101)
    q, c = damping_bloch(gammas)
    assert q.shape == (101, 3, 3) and c.shape == (101, 3)
    for g, qg, cg in zip(gammas, q, c):
        q_ref, c_ref = bloch_affine(amplitude_damping(float(g)))
        assert np.abs(qg - q_ref).max() <= 2.3e-16
        assert np.abs(cg - c_ref).max() <= 2.3e-16
    assert np.array_equal(q[0], np.eye(3)) and np.array_equal(c[0], np.zeros(3))


def test_damping_bloch_checks_every_gamma():
    with pytest.raises(NotFinite):
        damping_bloch([0.0, float("nan"), 0.5])
    with pytest.raises(NotFinite):
        damping_bloch([0.0, float("inf")])
    for bad in ([0.0, -1e-9], [1.0 + 1e-12], [0.5, 2.0, 0.1]):
        with pytest.raises(ParameterOutOfRange):
            damping_bloch(bad)


def test_apply_rejects_channel_of_other_shape(rng):
    # A complete qubit-to-qutrit family is a valid channel, but not one from a
    # qubit side to itself; a qutrit channel does not fit a qubit side either.
    st = random_two_qubit(rng)
    for ch in (kraus_channel([np.eye(3)[:, :2]]), random_channel(rng, 3)):
        for apply in (apply_on_a, apply_on_b):
            with pytest.raises(DimensionMismatch):
                apply(st, ch)
