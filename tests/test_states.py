import numpy as np
import pytest

from qsteer.errors import (
    NotFinite,
    NotPSD,
    ParameterOutOfRange,
    RadialSegment,
    RankDeficient,
    WeightsInvalid,
)
from qsteer.msc import msc_general, msc_oracle, msc_two_qubit
from qsteer.qcore import Basis, KET_0, bloch_vector, ket_dm, partial_trace, pauli_decompose
from qsteer.rand import random_basis, random_density_matrix, random_x_state
from qsteer.states import (
    chord_state,
    classical_state,
    dlc_state,
    dlc_theta1,
    damped_classical_msc,
    maximally_obese,
    pure_schmidt,
    rho_c,
    rho_p,
    werner,
    x_state,
)
from qsteer.steering import qse


def _bloch_ket(theta, phi=0.0):
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def test_every_family_validates(rng):
    members = [
        rho_c(0.7).state,
        rho_p(0.4, 0.3).state,
        werner(0.9).state,
        maximally_obese(0.3).state,
        chord_state(KET_0, _bloch_ket(0.7), _bloch_ket(-0.7)).state,
        dlc_state([0, 0, 0.8], [0.5, 0, 0.1], 0.4).state,
        pure_schmidt([0.8, 0.6]).state,
        x_state([0.4, 0.2, 0.3, 0.1], [0.1j, 0.05]).state,
    ]
    for st in members:
        assert abs(np.trace(st.matrix) - 1) <= 1e-12


def test_classical_state_weights_invalid():
    basis = Basis(vectors=np.eye(2, dtype=complex))
    alice = [random_density_matrix(np.random.default_rng(0), (2,))] * 2
    with pytest.raises(WeightsInvalid):
        classical_state([0.7, 0.7], alice, basis)
    with pytest.raises(WeightsInvalid):
        classical_state([1.2, -0.2], alice, basis)


def test_classical_single_term_is_product(rng):
    basis = random_basis(rng, 2)
    alice = [random_density_matrix(rng, (2,)), random_density_matrix(rng, (2,))]
    fam = classical_state([1.0, 0.0], alice, basis)
    assert msc_two_qubit(fam.state).value <= 1e-8


def test_classical_qutrit_bob(rng):
    basis = random_basis(rng, 3)
    alice = [random_density_matrix(rng, (2,)) for _ in range(3)]
    fam = classical_state(rng.dirichlet(np.ones(3)), alice, basis)
    assert fam.state.dims == (2, 3)
    assert msc_general(fam.state).value <= 1e-8


def test_rho_c_matches_construction():
    t = 0.75
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    hand = t * ket_dm(np.kron(plus, plus)) + (1 - t) * ket_dm(np.kron(minus, minus))
    np.testing.assert_allclose(rho_c(t).state.matrix, hand, atol=1e-14)


def test_rho_p_analytic_fields():
    fam = rho_p(0.5, np.pi / 2)
    assert fam.analytic_msc == pytest.approx(0.5)
    fam = rho_p(0.9, 0.2 * np.pi)
    ratio = fam.analytic_qse.semiaxes[2] / fam.analytic_qse.semiaxes[0]
    assert ratio == pytest.approx(0.980, abs=1e-3)
    fam = rho_p(0.5, 0.1 * np.pi)
    ratio = fam.analytic_qse.semiaxes[2] / fam.analytic_qse.semiaxes[0]
    assert ratio == pytest.approx(0.496, abs=1e-3)


def test_rho_p_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        rho_p(0.0, 0.3)
    with pytest.raises(ParameterOutOfRange):
        rho_p(1.0, 0.3)
    # math.cos(inf) raised a bare ValueError.
    with pytest.raises(NotFinite):
        rho_p(0.5, np.inf)


def test_rho_p_discordant_below_entanglement_threshold():
    # Nonzero steered coherence at weights too small for entanglement.
    theta = 0.3 * np.pi
    p = 0.9 / (2 * np.sin(theta) + 1)
    fam = rho_p(p, theta)
    assert msc_two_qubit(fam.state).value > 1e-3


def test_werner_endpoints():
    assert msc_two_qubit(werner(0.0).state).value <= 1e-6
    res = msc_two_qubit(werner(1.0).state)
    assert res.degenerate_path
    assert res.value == pytest.approx(1.0, abs=1e-4)


def test_werner_pauli_structure():
    th = pauli_decompose(werner(0.42).state)
    np.testing.assert_allclose(th.T, -0.42 * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(th.a, 0, atol=1e-12)
    np.testing.assert_allclose(th.b, 0, atol=1e-12)


def test_obese_is_canonical():
    for b in (0.0, 0.3, 0.8):
        th = pauli_decompose(maximally_obese(b).state)
        np.testing.assert_allclose(th.a, 0, atol=1e-10)
        np.testing.assert_allclose(th.b, [0, 0, b], atol=1e-10)


def test_obese_closed_forms():
    fam = maximally_obese(0.64)
    assert fam.analytic_msc == pytest.approx(0.6)
    assert msc_two_qubit(fam.state).value == pytest.approx(0.6, abs=1e-6)


def test_chord_saturates_bound():
    for b in (0.25, 0.6, 0.9):
        alpha = np.arccos(b)
        fam = chord_state(KET_0, _bloch_ket(alpha), _bloch_ket(-alpha))
        assert fam.analytic_msc == pytest.approx(np.sqrt(1 - b * b), abs=1e-12)
        assert msc_two_qubit(fam.state).value == pytest.approx(np.sqrt(1 - b * b), abs=1e-6)
        bob = bloch_vector(partial_trace(fam.state, 1).matrix)
        assert np.linalg.norm(bob) == pytest.approx(b, abs=1e-12)


def test_chord_antipodal_is_classical():
    # A diameter chord midpoint sits at the origin: the state is classical
    # and the degenerate branch drives the coherence to zero.
    fam = chord_state(KET_0, _bloch_ket(np.pi / 2), _bloch_ket(np.pi / 2 + np.pi))
    assert fam.analytic_msc == 0.0
    res = msc_two_qubit(fam.state)
    assert res.degenerate_path
    assert res.value <= 1e-4


def test_chord_rejects_bad_kets():
    with pytest.raises(ParameterOutOfRange):
        chord_state(np.zeros(2), _bloch_ket(0.3), _bloch_ket(-0.3))


def test_dlc_radial_segment_rejected():
    with pytest.raises(RadialSegment):
        dlc_state([0, 0, 0.9], [0, 0, 0.3], 0.5)
    with pytest.raises(RadialSegment):
        dlc_state([0, 0, 0.5], [0, 0, 0.5], 0.5)


def test_dlc_parameter_checks():
    with pytest.raises(ParameterOutOfRange):
        dlc_state([0, 0, 0.9], [0.5, 0, 0], 1.0)
    with pytest.raises(ParameterOutOfRange):
        dlc_state([0, 0, 1.7], [0.5, 0, 0], 0.5)


def test_dlc_marginal_and_segment():
    b1, b2, q = np.array([0, 0, 0.9]), np.array([0.6, 0, 0.2]), 0.3
    fam = dlc_state(b1, b2, q)
    bob = bloch_vector(partial_trace(fam.state, 1).matrix)
    np.testing.assert_allclose(bob, q * b1 + (1 - q) * b2, atol=1e-12)
    ell = qse(fam.state)
    assert ell.semiaxes[1] <= 1e-8 and ell.semiaxes[2] <= 1e-8
    assert ell.semiaxes[0] == pytest.approx(np.linalg.norm(b1 - b2) / 2, abs=1e-8)


def test_dlc_theta1_equation():
    rng = np.random.default_rng(2024)
    thetas = np.concatenate([
        rng.uniform(0.0, np.pi, 1600),
        rng.uniform(0.0, 1e-6, 200),
        np.pi - rng.uniform(0.0, 1e-6, 200),
    ])
    for theta in thetas:
        b1, b2 = rng.uniform(0.0, 1.0, 2)
        t1 = dlc_theta1(b1, b2, theta)
        assert 0 <= t1 <= theta
        assert abs(b1 * np.sin(t1) - b2 * np.sin(theta - t1)) <= 1e-14


def test_dlc_bounds_hold(rng):
    for _ in range(15):
        v1 = rng.standard_normal(3)
        v1 *= rng.uniform(0.3, 1.0) / np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 *= rng.uniform(0.3, 1.0) / np.linalg.norm(v2)
        if np.linalg.norm(np.cross(v1, v2)) < 0.05:
            continue
        fam = dlc_state(v1, v2, rng.uniform(0.15, 0.85))
        val = msc_two_qubit(fam.state).value
        low, high = fam.msc_bounds
        assert low - 1e-6 <= val <= high + 1e-6


def test_dlc_reaches_unity():
    theta = 0.75 * np.pi
    b1 = np.array([0.0, 0.0, 1.0])
    b2 = 0.6 * np.array([np.sin(theta), 0.0, np.cos(theta)])
    q = -float(b1 @ b2) / (1.0 - float(b1 @ b2))
    assert msc_two_qubit(dlc_state(b1, b2, q).state).value >= 0.99


def test_pure_schmidt_bell():
    fam = pure_schmidt([1 / np.sqrt(2), 1 / np.sqrt(2)])
    res = msc_two_qubit(fam.state)
    assert res.degenerate_path
    assert res.value == pytest.approx(1.0, abs=1e-4)


def test_pure_schmidt_near_product_keeps_maximum():
    delta = 0.01
    fam = pure_schmidt([np.sqrt(1 - delta), np.sqrt(delta)])
    assert fam.analytic_msc == 1.0
    assert msc_two_qubit(fam.state).value == pytest.approx(1.0, abs=1e-6)


def test_pure_schmidt_qutrit(rng):
    lam = np.sqrt([0.5, 0.3, 0.2])
    from qsteer.rand import random_unitary

    fam = pure_schmidt(lam, random_unitary(rng, 3), random_unitary(rng, 3))
    assert fam.analytic_msc == 2.0
    val = msc_general(fam.state).value
    oracle = msc_oracle(fam.state, 6000)
    assert val == pytest.approx(2.0, abs=1e-6)
    assert oracle <= val + 1e-9


def test_pure_schmidt_rank_deficient():
    with pytest.raises(RankDeficient):
        pure_schmidt([1.0, 0.0])


def test_x_state_reproduces_werner():
    p = 0.37
    fam = x_state([(1 - p) / 4, (1 + p) / 4, (1 + p) / 4, (1 - p) / 4], [0.0, -p / 2])
    np.testing.assert_allclose(fam.state.matrix, werner(p).state.matrix, atol=1e-14)


def test_x_state_classical_diagonal():
    t = 0.6
    fam = x_state([t / 2, t / 2, (1 - t) / 2, (1 - t) / 2], [0.0, 0.0])
    assert msc_two_qubit(fam.state).value <= 1e-8


def test_x_state_rejects_unphysical():
    with pytest.raises(NotPSD):
        x_state([0.5, 0.3, 0.1, 0.1], [0.5, 0.0])


def test_x_state_rule_matches_optimizer(rng):
    checked = 0
    while checked < 15:
        st = random_x_state(rng)
        b = pauli_decompose(st).b
        if np.linalg.norm(b) < 1e-3:
            continue
        checked += 1
        diag = np.real(np.diagonal(st.matrix))
        fam = x_state(diag, [st.matrix[0, 3], st.matrix[1, 2]])
        assert msc_two_qubit(fam.state).value == pytest.approx(fam.analytic_msc, abs=1e-6)


def test_analytic_qse_matches_computed():
    members = (
        [werner(p) for p in (0.2, 0.5, 0.9)]
        + [rho_p(p, th * np.pi) for p, th in ((0.3, 0.15), (0.7, 0.3), (0.9, 0.45))]
        + [maximally_obese(b) for b in (0.1, 0.5, 0.8)]
        + [chord_state(KET_0, _bloch_ket(a), _bloch_ket(-a)) for a in (0.4, 1.0)]
    )
    for fam in members:
        ell = qse(fam.state)
        np.testing.assert_allclose(ell.center, fam.analytic_qse.center, atol=1e-8)
        np.testing.assert_allclose(ell.semiaxes, fam.analytic_qse.semiaxes, atol=1e-8)


def test_damped_classical_closed_form_properties():
    assert damped_classical_msc(0.75, 0.0) == 0.0
    assert damped_classical_msc(0.75, 1.0) == 0.0
    assert damped_classical_msc(0.75, 0.5) > 0.01
    # Symmetric under t <-> 1-t, as the damping channel commutes with the
    # local flip that exchanges the two classical branches.
    assert damped_classical_msc(0.3, 0.4) == pytest.approx(damped_classical_msc(0.7, 0.4), abs=1e-12)
