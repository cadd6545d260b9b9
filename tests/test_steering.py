import numpy as np
import pytest

from qsteer.coherence import coherence_l1
from qsteer.errors import (
    GeometryViolation,
    InvalidPOVMElement,
    NotFinite,
    NotHermitian,
    SingularDenominator,
    SingularMarginal,
    ZeroProbability,
)
from qsteer.qcore import (
    Basis,
    KET_MINUS,
    KET_PLUS,
    bloch_vector,
    ket_dm,
    partial_trace,
    pauli_decompose,
    validate_density,
)
from qsteer.rand import (
    random_classical,
    random_density_matrix,
    random_pure_ket,
    random_two_qubit,
    random_unitary,
    random_x_state,
)
from qsteer.states import maximally_obese, rho_c, rho_p, werner
from qsteer.steering import (
    _whitened_map,
    canonical_transform,
    qse,
    steer,
    steered_bloch,
    steered_surface,
    validate_povm_element,
)


def test_povm_validation():
    validate_povm_element(np.eye(2) * 0.5)
    with pytest.raises(NotFinite):
        validate_povm_element(np.diag([np.nan, 0.5]))
    with pytest.raises(NotHermitian):
        validate_povm_element(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(InvalidPOVMElement):
        validate_povm_element(np.diag([1.5, 0.0]))
    with pytest.raises(InvalidPOVMElement):
        validate_povm_element(np.diag([-0.2, 0.5]))


def test_product_states_cannot_be_steered(rng):
    for _ in range(50):
        rb = random_density_matrix(rng, (2,))
        st = validate_density(np.kron(random_density_matrix(rng, (2,)).matrix, rb.matrix), (2, 2))
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        m = ket_dm(psi / np.linalg.norm(psi))
        steered, _ = steer(st, m)
        np.testing.assert_allclose(steered.matrix, rb.matrix, atol=1e-10)


def test_steer_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    st = validate_density(np.outer(bell, bell.conj()), (2, 2))
    steered, p = steer(st, ket_dm(KET_PLUS))
    assert p == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(steered.matrix, ket_dm(KET_PLUS), atol=1e-12)


def test_steer_classical_state_stays_diagonal():
    # Steering a classical state gives states diagonal in the |+>, |-> basis.
    st = rho_c(0.75).state
    steered, _ = steer(st, np.diag([1.0, 0.0]))
    basis = Basis(vectors=np.column_stack([KET_PLUS, KET_MINUS]))
    assert coherence_l1(steered, basis) <= 1e-12


def test_steer_zero_probability():
    st = validate_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
    with pytest.raises(ZeroProbability):
        steer(st, np.diag([0.0, 1.0]))


def test_steered_bloch_trivial_measurement(rng):
    for _ in range(20):
        th = pauli_decompose(random_two_qubit(rng))
        np.testing.assert_allclose(steered_bloch(th, np.zeros(3)), th.b, atol=1e-12)


def test_steered_bloch_werner():
    th = pauli_decompose(werner(0.73).state)
    np.testing.assert_allclose(steered_bloch(th, [0, 0, 1]), [0, 0, -0.73], atol=1e-12)


def test_steered_bloch_matches_steer(rng):
    # Cross-module consistency of the Bloch shortcut with direct steering.
    for _ in range(1000):
        st = random_two_qubit(rng)
        th = pauli_decompose(st)
        m = rng.standard_normal(3)
        m /= np.linalg.norm(m)
        direct, _ = steer(st, (np.eye(2) + m[0] * np.array([[0, 1], [1, 0]]) + m[1] * np.array([[0, -1j], [1j, 0]]) + m[2] * np.diag([1, -1])) / 2)
        np.testing.assert_allclose(steered_bloch(th, m), bloch_vector(direct.matrix), atol=1e-9)


def test_steered_bloch_singular_denominator():
    st = validate_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
    th = pauli_decompose(st)
    with pytest.raises(SingularDenominator):
        steered_bloch(th, [0.0, 0.0, -1.0])
    # A NaN direction is an input error, not a NaN steered vector.
    with pytest.raises(NotFinite):
        steered_bloch(pauli_decompose(werner(0.5).state), [np.nan, 0.0, 0.0])


def test_canonical_transform_fixes_canonical_states():
    for state in (werner(0.6).state, maximally_obese(0.4).state):
        out = canonical_transform(state)
        assert np.abs(out.matrix - state.matrix).max() <= 1e-10


def test_canonical_transform_zeroes_alice(rng):
    for _ in range(50):
        out = canonical_transform(random_two_qubit(rng))
        assert np.linalg.norm(pauli_decompose(out).a) <= 1e-9


def test_canonical_transform_preserves_steering_set(rng):
    # Surface points sampled from the original state's steering map must lie
    # on the canonical state's ellipsoid.
    checked = 0
    while checked < 25:
        st = random_two_qubit(rng)
        ell = qse(st)
        if ell.semiaxes.min() < 1e-6:
            continue
        checked += 1
        pts = steered_surface(pauli_decompose(st), 1000)
        assert ell.surface_residual(pts) <= 1e-6


def test_canonical_transform_rejects_pure_marginal():
    st = validate_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
    with pytest.raises(SingularMarginal):
        canonical_transform(st)


def _alice_rank_two_qutrit(rng):
    # A 2x3 state with Alice's qubit embedded in a qutrit: rank(rho_A) = 2.
    rho = np.zeros((3, 3, 3, 3), dtype=complex)
    rho[:2, :, :2, :] = random_density_matrix(rng, (2, 3)).matrix.reshape(2, 3, 2, 3)
    return validate_density(rho.reshape(9, 9), (3, 3))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), "rank-2"])
def test_whitened_map_steers_like_steer(rng, dims):
    # R spans rho_A's support, and the whitened ket phi steers to
    # phi^dag T phi, which is |R phi|^2 p sigma for psi = R phi / |R phi|.
    for _ in range(5):
        st = _alice_rank_two_qutrit(rng) if dims == "rank-2" else random_density_matrix(rng, dims)
        smap, whiten = _whitened_map(st)
        assert whiten.shape[1] == np.linalg.matrix_rank(partial_trace(st, 0).matrix, tol=1e-10)
        phi = random_pure_ket(rng, whiten.shape[1])
        psi = whiten @ phi
        norm2 = np.vdot(psi, psi).real
        sigma, p = steer(st, ket_dm(psi / np.sqrt(norm2)))
        s = np.einsum("x,bdxy,y->bd", phi.conj(), smap, phi)
        assert np.abs(s / norm2 - p * sigma.matrix).max() <= 1e-13
        assert p * norm2 == pytest.approx(1.0, abs=1e-13)


def test_qse_rho_p_closed_form():
    for p, theta in ((0.9, 0.2 * np.pi), (0.5, 0.1 * np.pi), (0.3, 0.4 * np.pi)):
        fam = rho_p(p, theta)
        ell = qse(fam.state)
        np.testing.assert_allclose(ell.center, fam.analytic_qse.center, atol=1e-8)
        np.testing.assert_allclose(ell.semiaxes, fam.analytic_qse.semiaxes, atol=1e-8)


def test_qse_werner_ball():
    ell = qse(werner(0.3).state)
    np.testing.assert_allclose(ell.center, 0, atol=1e-12)
    np.testing.assert_allclose(ell.semiaxes, 0.3, atol=1e-12)


def test_qse_obese():
    fam = maximally_obese(0.5)
    ell = qse(fam.state)
    np.testing.assert_allclose(ell.center, [0, 0, 0.5], atol=1e-10)
    np.testing.assert_allclose(ell.semiaxes, [np.sqrt(0.5), np.sqrt(0.5), 0.5], atol=1e-10)


def test_qse_classical_segment():
    ell = qse(rho_c(0.75).state)
    # Radial segment: two vanishing semiaxes, center along the segment.
    assert ell.semiaxes[1] <= 1e-10 and ell.semiaxes[2] <= 1e-10
    assert ell.semiaxes[0] > 0.1
    # Random classical states have no exact zeros in M; the square root of
    # an eigenvalue of M M^T would leave ~1e-8 on the middle axis.
    rng = np.random.default_rng(1)
    for _ in range(200):
        semiaxes = qse(random_classical(rng)).semiaxes
        assert semiaxes[1] <= 1e-12 and semiaxes[2] <= 1e-12


def test_qse_canonical_center_is_bob(rng):
    for _ in range(20):
        st = canonical_transform(random_two_qubit(rng))
        ell = qse(st)
        np.testing.assert_allclose(ell.center, pauli_decompose(st).b, atol=1e-9)


def test_qse_x_state_frame_contains_bob_axis(rng):
    found = 0
    while found < 20:
        st = random_x_state(rng)
        b = pauli_decompose(st).b
        if np.linalg.norm(b) < 1e-3:
            continue
        found += 1
        ell = qse(st)
        cosines = np.abs(ell.frame.T @ (b / np.linalg.norm(b)))
        assert cosines.max() >= 1 - 1e-6


def test_qse_surface_stays_inside_ball(rng):
    for _ in range(30):
        ell = qse(random_two_qubit(rng))
        assert np.linalg.norm(ell.surface_points(500), axis=1).max() <= 1 + 1e-8


def test_qse_frame_orthonormal(rng):
    for _ in range(30):
        ell = qse(random_two_qubit(rng))
        np.testing.assert_allclose(ell.frame.T @ ell.frame, np.eye(3), atol=1e-9)
        assert ell.semiaxes[0] >= ell.semiaxes[1] >= ell.semiaxes[2] >= -1e-12


def test_steered_points_inside_unit_ball(rng):
    for _ in range(30):
        th = pauli_decompose(random_two_qubit(rng))
        pts = steered_surface(th, 500)
        assert np.linalg.norm(pts, axis=1).max() <= 1 + 1e-9


def test_rotated_state_rotates_frame(rng):
    # A local unitary on Bob rotates the ellipsoid rigidly.
    fam = rho_p(0.8, 0.25 * np.pi)
    u = random_unitary(rng, 2)
    rotated = validate_density(
        np.kron(np.eye(2), u) @ fam.state.matrix @ np.kron(np.eye(2), u).conj().T, (2, 2)
    )
    e0, e1 = qse(fam.state), qse(rotated)
    np.testing.assert_allclose(np.sort(e0.semiaxes), np.sort(e1.semiaxes), atol=1e-9)
    assert abs(np.linalg.norm(e0.center) - np.linalg.norm(e1.center)) <= 1e-9


def test_ellipsoid_containment_helper(rng):
    ell = qse(rho_c(0.6).state)
    pts = steered_surface(pauli_decompose(rho_c(0.6).state), 300)
    assert ell.containment_violation(pts) <= 1e-9
    with pytest.raises(GeometryViolation):
        ell.surface_residual(pts)


def _near_product(rng):
    # (1 - eps) |psi><psi| x sigma + eps tau with 1 - |a| ~ 1e-6, as in test_msc.py.
    psi = random_pure_ket(rng, 2)
    n = bloch_vector(np.outer(psi, psi.conj()))
    tau = random_two_qubit(rng)
    eps = 10.0 ** rng.uniform(-6.3, -5.7) / (1.0 - n @ pauli_decompose(tau).a)
    rho = (1 - eps) * np.kron(np.outer(psi, psi.conj()), random_density_matrix(rng, (2,)).matrix) + eps * tau.matrix
    return validate_density(rho, (2, 2))


def test_qse_matches_canonical_transform_route(rng):
    # qse whitens the Pauli form directly; the 4x4 canonical transform must
    # give the same center, semiaxes and frame. Five near-product states
    # (1 - |a| ~ 1e-6) lose about eps / (1 - |a|) in both routes, and their
    # two small semiaxes sit ~1e-4 apart: center and semiaxes agree to
    # 9.3e-11 (7.8e-11 with an eigh whitening of rho_A), frames to 1.2e-7
    # (9.5e-8).
    for k in range(55):
        st = random_two_qubit(rng) if k < 50 else _near_product(rng)
        th = pauli_decompose(canonical_transform(st))
        w, f = np.linalg.eigh(th.T.T @ th.T)
        order = np.argsort(-w)
        frame = f[:, order] * np.sign(f[np.argmax(np.abs(f[:, order]), axis=0), order])
        ell = qse(st)
        tol, frame_tol = (1e-12, 1e-12) if k < 50 else (1e-8, 1e-5)
        np.testing.assert_allclose(ell.center, th.b, atol=tol)
        np.testing.assert_allclose(ell.semiaxes, np.sqrt(np.clip(w[order], 0, None)), atol=tol)
        np.testing.assert_allclose(ell.frame, frame, atol=frame_tol)


def test_qse_rejects_pure_alice_marginal():
    st = validate_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
    with pytest.raises(SingularMarginal):
        qse(st)


def test_surface_grids_use_the_fibonacci_lattice(rng):
    # One lattice serves the ellipsoid sample and the steered surface.
    i = np.arange(300)
    z = 1.0 - (2.0 * i + 1.0) / 300
    phi = np.pi * (1.0 + 5.0**0.5) * i
    lattice = np.stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z], axis=1)
    st = random_two_qubit(rng)
    th = pauli_decompose(st)
    ell = qse(st)
    np.testing.assert_array_equal(
        ell.surface_points(300), ell.center + (ell.frame @ (ell.semiaxes[:, None] * lattice.T)).T
    )
    np.testing.assert_array_equal(
        steered_surface(th, 300), (th.b + lattice @ th.T) / np.abs(1.0 + lattice @ th.a)[:, None]
    )
