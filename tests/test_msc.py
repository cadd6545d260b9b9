import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats, lists

from qsteer import msc
from qsteer.channels import amplitude_damping, apply_on_b, bloch_stack, damping_bloch
from qsteer.coherence import coherence_l1
from qsteer.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    QsteerError,
    SingularMarginal,
    TrivialProductState,
    ZeroProbability,
)
from qsteer.msc import (
    fibonacci_sphere,
    msc_general,
    msc_oracle,
    msc_sweep,
    msc_two_qubit,
    sphere_sequence,
)
from qsteer.optimize import max_norm_on_sphere
from qsteer.qcore import (
    bloch_vector,
    eigen_hermitian,
    ket_dm,
    partial_trace,
    pauli_compose,
    pauli_decompose,
    qubit_state,
    validate_density,
)
from qsteer.rand import (
    random_basis,
    random_bob_filtered,
    random_canonical,
    random_classical,
    random_density_matrix,
    random_product,
    random_pure_ket,
    random_two_qubit,
    random_unital_channel,
    random_unitary,
)
from qsteer.states import chord_state, classical_state, maximally_obese, pure_schmidt, rho_c, rho_p, werner
from qsteer.steering import _require_mixed, _whitened_map, qse, steer


def test_werner_value():
    res = msc_two_qubit(werner(0.7).state)
    assert res.value == pytest.approx(0.7, abs=1e-6)
    assert res.degenerate_path


def test_rho_p_at_right_angle():
    res = msc_two_qubit(rho_p(0.5, np.pi / 2).state)
    assert res.value == pytest.approx(0.5, abs=1e-6)


def test_classical_state_vanishes():
    assert msc_two_qubit(rho_c(0.75).state).value <= 1e-8


def test_obese_value():
    assert msc_two_qubit(maximally_obese(0.64).state).value == pytest.approx(0.6, abs=1e-6)


def test_result_witness_consistency(rng):
    # The reported value must equal the coherence of the reported steered
    # state in the reported basis.
    for _ in range(25):
        st = random_two_qubit(rng)
        res = msc_two_qubit(st)
        assert abs(res.value - coherence_l1(res.steered_state, res.reference_basis)) <= 1e-9
        assert abs(np.linalg.norm(res.optimal_m) - 1) <= 1e-9
        assert 0 <= res.value <= 1 + 1e-9


def test_trivial_product_state_rejected():
    st = validate_density(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2), (2, 2))
    with pytest.raises(TrivialProductState):
        msc_two_qubit(st)


def test_near_degenerate_warning():
    st = rho_p(0.5, np.pi / 2 - 2e-5).state  # |b| ~ 1.6e-5
    res = msc_two_qubit(st)
    assert res.warnings
    assert not res.degenerate_path


def test_degenerate_bell_diagonal_middle_value(rng):
    # For a = b = 0 the value is inf over axes n of the largest singular
    # value of the projected correlation matrix; an independent oracle
    # evaluates that inner maximum exactly (svd) over a dense grid of axes.
    s = [np.eye(2, dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]
    for ts in ((0.5, -0.3, 0.1), (0.45, 0.35, -0.2), (0.7, -0.5, 0.3)):
        rho = np.eye(4, dtype=complex) / 4
        for i, t in enumerate(ts, start=1):
            rho += t * np.kron(s[i], s[i]) / 4
        state = validate_density(rho, (2, 2))
        res = msc_two_qubit(state)
        assert res.degenerate_path

        t_mat = np.diag(ts)
        grid = fibonacci_sphere(4000)
        inner = []
        for n in grid[grid[:, 2] >= 0]:
            cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
            inner.append(np.linalg.svd(cross @ t_mat.T, compute_uv=False)[0])
        oracle_inf = min(inner)
        middle = sorted(abs(np.array(ts)))[1]
        assert res.value == pytest.approx(oracle_inf, abs=1e-3)
        assert res.value == pytest.approx(middle, abs=1e-12)


def test_general_agrees_with_two_qubit(rng):
    for _ in range(200):
        st = random_two_qubit(rng)
        assert abs(msc_general(st).value - msc_two_qubit(st).value) <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_general_dominates_oracle_on_mixed_qudits(rng, dims):
    for _ in range(30):
        st = random_density_matrix(rng, dims)
        res = msc_general(st)
        assert res.converged
        assert res.value >= msc_oracle(st, 3000, basis=res.reference_basis) - 1e-9
        assert abs(res.value - coherence_l1(res.steered_state, res.reference_basis)) <= 1e-9


def test_general_converges_on_4x4(rng):
    for _ in range(10):
        res = msc_general(random_density_matrix(rng, (4, 4)))
        assert res.converged
        assert abs(res.value - coherence_l1(res.steered_state, res.reference_basis)) <= 1e-9


def test_general_rank_deficient_alice_marginal(rng):
    # A qubit embedded in a qutrit by an isometry W: rho_A has rank 2, the
    # kets outside its support steer nothing, and the value is the 2x3 one.
    for _ in range(5):
        st = random_density_matrix(rng, (2, 3))
        w = np.kron(random_unitary(rng, 3)[:, :2], np.eye(3))
        embedded = validate_density(w @ st.matrix @ w.conj().T, (3, 3))
        res = msc_general(embedded)
        assert res.converged
        assert res.value == pytest.approx(msc_general(st).value, abs=1e-12)


def test_general_product_state(rng):
    assert msc_general(random_product(rng, 2, 2)).value <= 1e-8


def test_general_pure_qutrit_reaches_maximum(rng):
    lam = np.sqrt(np.array([0.5, 0.3, 0.2]))
    ua, ub = random_unitary(rng, 3), random_unitary(rng, 3)
    psi = sum(lam[i] * np.kron(ua[:, i], ub[:, i]) for i in range(3))
    st = validate_density(np.outer(psi, psi.conj()), (3, 3))
    assert msc_general(st).value == pytest.approx(2.0, abs=1e-6)


def test_general_dimension_cap():
    st = validate_density(np.eye(10) / 10, (2, 5))
    with pytest.raises(DimensionTooLarge):
        msc_general(st)


def test_oracle_alice_dimension_cap():
    st = validate_density(np.eye(8) / 8, (4, 2))
    with pytest.raises(DimensionTooLarge):
        msc_oracle(st, 100)


def _count_ascents(monkeypatch):
    calls = []
    ascent = msc._maximize_rank1
    monkeypatch.setattr(msc, "_maximize_rank1", lambda *a, **kw: calls.append(1) or ascent(*a, **kw))
    return calls


def _pure(rng, coefs, dims):
    # sum_i c_i U_A|i> x U_B|i>, normalized: Schmidt rank len(coefs).
    ua, ub = random_unitary(rng, dims[0]), random_unitary(rng, dims[1])
    c = np.asarray(coefs, dtype=float) / np.linalg.norm(coefs)
    psi = sum(c[i] * np.kron(ua[:, i], ub[:, i]) for i in range(len(c)))
    return validate_density(np.outer(psi, psi.conj()), dims)


@pytest.mark.parametrize(
    "dims, coefs",
    [
        pytest.param((2, 3), (0.8, 0.6), id="2x3-r2"),
        pytest.param((3, 2), (0.8, 0.6), id="3x2-r2"),
        pytest.param((4, 2), (0.8, 0.6), id="4x2-r2"),
        pytest.param((3, 3), (0.8, 0.6), id="3x3-r2"),
        pytest.param((2, 4), (0.8, 0.6), id="2x4-r2"),
        pytest.param((4, 4), (0.8, 0.6), id="4x4-r2"),
        pytest.param((4, 4), (0.7, 0.5, 0.3), id="4x4-r3"),
        pytest.param((4, 4), (0.7, 0.5, 0.4, 0.2), id="4x4-r4"),
        pytest.param((3, 3), (0.5, 0.5, 0.7), id="3x3-tie"),
        pytest.param((3, 3), (1, 1, 1), id="3x3-max"),
        pytest.param((4, 4), (1, 1, 1, 1), id="4x4-max"),
        pytest.param((3, 3), (1,), id="3x3-product"),
    ],
)
def test_general_pure_state_takes_the_closed_form(monkeypatch, dims, coefs):
    # A pure state of Schmidt rank r steers Bob to the sum of rho_B's r support
    # eigenvectors: r - 1 in every admissible basis, with no ascent. r <= d_B - 2
    # and ties leave rho_B degenerate; the descent is skipped there too.
    calls = _count_ascents(monkeypatch)
    st = _pure(np.random.default_rng(23), coefs, dims)
    _, eigenbasis = eigen_hermitian(partial_trace(st, 1).matrix)
    res = msc_general(st)
    assert res.value == pytest.approx(len(coefs) - 1, abs=4e-15)
    assert res.value == coherence_l1(res.steered_state, res.reference_basis)
    assert res.degenerate_path is eigenbasis.degenerate
    assert res.converged
    assert not calls


@pytest.mark.parametrize("dims", [(3, 3), (4, 4)], ids=["3x3", "4x4"])
def test_ascent_reaches_the_schmidt_rank_on_pure_states(dims):
    # msc_general no longer runs the ascent on pure states; it still climbs to r - 1.
    rng = np.random.default_rng(29)
    for _ in range(3):
        st = _pure(rng, rng.uniform(0.2, 1.0, dims[0]), dims)
        _, basis = eigen_hermitian(partial_trace(st, 1).matrix)
        lam, _, _ = msc._maximize_rank1(_whitened_map(st)[0], basis.vectors)
        assert lam.max() == pytest.approx(dims[0] - 1, abs=1e-12)


def _near_pure(delta):
    # (1 - delta) psi psi^dag + delta 1/9 for a Schmidt-rank-3 psi.
    psi = _pure(np.random.default_rng(31), (0.7, 0.5, 0.4), (3, 3))
    return validate_density((1 - delta) * psi.matrix + delta * np.eye(9) / 9, (3, 3))


@pytest.mark.parametrize("delta, routed", [(5e-12, True), (2e-11, False)], ids=["routed", "ascent"])
def test_general_across_the_rank_one_cut(monkeypatch, delta, routed):
    # _near_pure(delta) has lambda_2 = delta/9: 5.6e-13 is within the support
    # cut SINGULAR_MARGINAL_TOL = 1e-12 and takes the closed form, 2.2e-12 is
    # not; both equal the direct ascent's top lambda.
    st = _near_pure(delta)
    _, basis = eigen_hermitian(partial_trace(st, 1).matrix)
    lam, _, _ = msc._maximize_rank1(_whitened_map(st)[0], basis.vectors)
    calls = _count_ascents(monkeypatch)
    res = msc_general(st)
    assert bool(calls) is not routed
    assert not res.degenerate_path
    assert res.value == pytest.approx(lam.max(), abs=1e-14)
    assert res.value < 2.0


def test_general_witness_state_equals_steer():
    # steered_state is the witness's phi^dag T phi over its trace; steer of
    # Alice's reported ket stays the independent check (2.2e-16 measured).
    rng = np.random.default_rng(41)
    states = [random_density_matrix(rng, dims) for dims in ((2, 3), (3, 3), (4, 4)) for _ in range(3)]
    states += [_pure(rng, coefs, (4, 4)) for coefs in ((0.8, 0.6), (0.7, 0.5, 0.3), (0.7, 0.5, 0.4, 0.2))]
    states += [_near_pure(5e-12), _near_pure(2e-11)]
    for st in states:
        res = msc_general(st)
        want, _ = steer(st, ket_dm(res.optimal_m))
        assert res.steered_state.dims == (st.dims[1],)
        np.testing.assert_allclose(res.steered_state.matrix, want.matrix, rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_general_pure_state_with_a_small_schmidt_coefficient(seed):
    # Schmidt coefficients (0.9, 0.43, 1e-4): the witness's outcome weight is
    # ~1e-8, so its steered operator's trace and |phi|^2 differ by roundoff
    # that a division by |phi|^2 would carry into a NotUnitTrace raise.
    res = msc_general(_pure(np.random.default_rng(seed), (0.9, 0.43, 1e-4), (3, 3)))
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_general_degenerate_werner(monkeypatch):
    # Every basis gives p, so each descent start stops at once on roundoff:
    # its first trial ascent, then the full ascent that values its end basis.
    calls = _count_ascents(monkeypatch)
    for p in (0.3, 0.6, 0.9, 1.0):
        calls.clear()
        res = msc_general(werner(p).state)
        assert res.degenerate_path
        assert res.value == pytest.approx(p, abs=1e-12)
        assert len(calls) <= 2 * msc.DESCENT_STARTS


@pytest.mark.parametrize("eps, degenerate", [(5e-10, True), (2e-9, False)])
def test_one_degeneracy_threshold_for_both_paths(eps, degenerate):
    # werner(0.6) + (eps/4) 1 x sigma_z has |b| = eps, and rho_B's
    # eigenvalues (1 +- eps)/2 are eps apart: both paths compare eps with
    # the one threshold qcore.DEGENERACY_TOL = 1e-9.
    rho = werner(0.6).state.matrix + eps / 4 * np.kron(np.eye(2), np.diag([1.0, -1.0]))
    st = validate_density(rho, (2, 2))
    two = msc_two_qubit(st)
    general = msc_general(st)
    assert two.degenerate_path is degenerate
    assert general.degenerate_path is degenerate
    assert bool(two.warnings) is not degenerate
    assert two.value == pytest.approx(0.6, abs=1e-6)
    assert general.value == pytest.approx(0.6, abs=1e-6)


def test_general_degenerate_isotropic_qutrit(monkeypatch):
    # Every basis gives (d - 1) p by U x conj(U) covariance.
    calls = _count_ascents(monkeypatch)
    phi = np.eye(3).reshape(-1) / np.sqrt(3)
    res = msc_general(validate_density(0.5 * np.outer(phi, phi) + 0.5 * np.eye(9) / 9, (3, 3)))
    assert res.degenerate_path
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert len(calls) <= 2 * msc.DESCENT_STARTS


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_ascent_start_does_not_depend_on_its_batch_mates(monkeypatch, dims):
    # A settled start leaves the batch, so each start run alone (no seeded
    # starts, the start passed as extra) returns its row of the full batch
    # bit for bit.
    rng = np.random.default_rng(13)
    for _ in range(3):
        st = random_density_matrix(rng, dims)
        _, basis = eigen_hermitian(partial_trace(st, 1).matrix)
        args = (_whitened_map(st)[0], basis.vectors)
        lam, phi, settled = msc._maximize_rank1(*args)
        seeded = np.random.default_rng(msc.SEED)
        shape = (msc.ASCENT_STARTS, dims[0])
        starts = seeded.standard_normal(shape) + 1j * seeded.standard_normal(shape)
        with monkeypatch.context() as m:
            m.setattr(msc, "ASCENT_STARTS", 0)
            for s in range(0, len(starts), 5):
                solo_lam, solo_phi, solo_settled = msc._maximize_rank1(*args, starts[s : s + 1])
                assert solo_lam[0] == lam[s]
                assert np.array_equal(solo_phi[0], phi[s])
                assert solo_settled[0] == settled[s]


# ---------- degenerate branch (d_B >= 2): the witness-gradient descent ----------


def test_general_degenerate_qubit_bob_equals_two_qubit():
    # rho_B = I/2: the infimum over Bob's bases is the two-qubit path's
    # certified b = 0 value.
    rng = np.random.default_rng(3)
    for _ in range(4):
        st = random_bob_filtered(rng, (2, 2))
        res = msc_general(st)
        assert res.degenerate_path
        assert abs(res.value - msc_two_qubit(st).value) <= 1e-10


def test_general_degenerate_qutrit_bob_descends():
    # rho_B = I/3; the Nelder-Mead search this descent replaced stopped at
    # 0.5537770105423846 on this state.
    rng = np.random.default_rng(8)
    random_bob_filtered(rng, (2, 3))
    st = random_bob_filtered(rng, (2, 3))
    res = msc_general(st)
    assert res.degenerate_path
    assert res.converged
    assert res.value <= 0.5537770105423846 - 1e-2
    assert abs(res.value - coherence_l1(res.steered_state, res.reference_basis)) <= 1e-9
    want, _ = steer(st, ket_dm(res.optimal_m))
    np.testing.assert_allclose(res.steered_state.matrix, want.matrix, rtol=0, atol=1e-13)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
def test_witness_gradient_is_the_derivative_along_block_rotations(dims):
    # tr(G H) against a central difference of the witness coherence along
    # V exp(itH); the rate is smooth where no off-diagonal entry of B is 0.
    rng = np.random.default_rng(17)
    st = random_density_matrix(rng, dims)
    smap, _ = _whitened_map(st)
    vectors = random_unitary(rng, dims[1])
    phi = random_pure_ket(rng, smap.shape[2])
    g = rng.standard_normal((dims[1], dims[1])) + 1j * rng.standard_normal((dims[1], dims[1]))
    h = g + g.conj().T

    def coherence(t):
        v = vectors @ msc._expm_i_hermitian(t * h)
        b = v.conj().T @ np.einsum("x,bdxy,y->bd", phi.conj(), smap, phi) @ v
        return np.abs(b).sum() - np.abs(np.diag(b)).sum()

    rate = np.trace(msc._witness_gradient(smap, vectors, phi) @ h).real
    assert rate == pytest.approx((coherence(1e-6) - coherence(-1e-6)) / 2e-6, rel=1e-7)


def test_general_partly_degenerate_bob_keeps_the_lone_eigenvector():
    # rho_B = diag(1.2, 0.9, 0.9)/3: only the 0.3 block may rotate.
    st = random_bob_filtered(np.random.default_rng(5), (2, 3), (1.2, 0.9, 0.9))
    _, eigenbasis = eigen_hermitian(partial_trace(st, 1).matrix)
    res = msc_general(st)
    assert res.degenerate_path
    assert np.abs(res.reference_basis.vectors[:, 0] - eigenbasis.vectors[:, 0]).max() <= 1e-12
    assert np.abs(res.reference_basis.vectors[:, 1:] - eigenbasis.vectors[:, 1:]).max() > 1e-3


def test_oracle_werner():
    assert msc_oracle(werner(0.7).state, 5000) == pytest.approx(0.7, abs=1e-3)


def test_oracle_classical_zero():
    assert msc_oracle(rho_c(0.75).state, 500) == pytest.approx(0.0, abs=1e-14)


def test_oracle_nested_monotone(rng):
    # The sphere sequence is prefix-nested, so doubling the resolution can
    # only raise the grid maximum.
    for _ in range(10):
        st = random_two_qubit(rng)
        for n in (100, 400):
            assert msc_oracle(st, 2 * n) >= msc_oracle(st, n) - 1e-12
    coarse, fine = sphere_sequence(100), sphere_sequence(200)
    np.testing.assert_allclose(fine[:100], coarse, atol=0)


def test_oracle_dominated_by_optimizer(rng):
    for _ in range(25):
        st = random_two_qubit(rng)
        res = msc_two_qubit(st)
        assert msc_oracle(st, 2000, basis=res.reference_basis) <= res.value + 1e-9


def test_local_unitary_invariance(rng):
    for _ in range(20):
        st = random_two_qubit(rng)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = validate_density(u @ st.matrix @ u.conj().T, (2, 2))
        assert abs(msc_two_qubit(rotated).value - msc_two_qubit(st).value) <= 1e-6


def test_zero_iff_classical(rng):
    for _ in range(10):
        assert msc_two_qubit(random_classical(rng)).value <= 1e-8
    for _ in range(10):
        assert msc_oracle(random_two_qubit(rng), 2000) >= 1e-4


def test_canonical_bound(rng):
    from qsteer.steering import canonical_transform

    for _ in range(20):
        st = canonical_transform(random_two_qubit(rng))
        ell = qse(st)
        b = np.linalg.norm(ell.center)
        val = msc_two_qubit(st).value
        assert val <= ell.semiaxes[0] + 1e-8
        assert ell.semiaxes[0] <= np.sqrt(max(0.0, 1 - b * b)) + 1e-8


def test_deterministic_results():
    st = rho_p(0.62, 0.23 * np.pi).state
    r1, r2 = msc_two_qubit(st), msc_two_qubit(st)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.optimal_m, r2.optimal_m)


def test_pauli_blocks_feed_objective():
    # The optimum for the prolate family tilts against Alice's marginal.
    fam = rho_p(0.8, 0.2 * np.pi)
    res = msc_two_qubit(fam.state)
    a = pauli_decompose(fam.state).a
    assert res.value == pytest.approx(fam.analytic_msc, abs=1e-8)
    assert float(a @ res.optimal_m) < 0


# ---------- exact trust-region step ----------


def test_value_dominates_u_grid(rng):
    # |P c + P M u| = |x x n| on a 20,000-point u-grid of the ellipsoid.
    for _ in range(200):
        st = random_two_qubit(rng)
        res = msc_two_qubit(st)
        b = pauli_decompose(st).b
        grid = np.linalg.norm(np.cross(qse(st).surface_points(20000), b / np.linalg.norm(b)), axis=1).max()
        assert res.value >= grid - 1e-12


def test_hard_case_canonical_states(rng):
    # a = 0 puts the center c = b on Bob's axis, so P c = 0 (the hard case)
    # and the value is the largest singular value of P T^T.
    for _ in range(20):
        st = random_canonical(rng)
        res = msc_two_qubit(st)
        th = pauli_decompose(st)
        n_hat = th.b / np.linalg.norm(th.b)
        top = np.linalg.svd((np.eye(3) - np.outer(n_hat, n_hat)) @ th.T.T, compute_uv=False)[0]
        assert res.converged
        assert res.value == pytest.approx(top, abs=1e-12)


def test_hard_case_pure_schmidt_states(rng):
    # The ellipsoid is the Bloch sphere: a double top eigenvalue.
    for lam2 in (0.55, 0.7, 0.9):
        psi = np.array([np.sqrt(lam2), 0, 0, np.sqrt(1 - lam2)], dtype=complex)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        st = validate_density(u @ np.outer(psi, psi.conj()) @ u.conj().T, (2, 2))
        res = msc_two_qubit(st)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-9)


def test_hard_case_full_damping(rng):
    # gamma = 1 sends Bob to |0>: M = 0 and every steered state is |0>.
    for _ in range(5):
        st = apply_on_b(random_two_qubit(rng), amplitude_damping(1.0))
        res = msc_two_qubit(st)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(qse(st).semiaxes, 0.0, atol=1e-12)


def _near_product(rng):
    # (1 - eps) |psi><psi| x sigma + eps tau with 1 - |a| ~ 1e-6.
    psi = random_pure_ket(rng, 2)
    n = bloch_vector(np.outer(psi, psi.conj()))
    sigma = random_density_matrix(rng, (2,)).matrix
    tau = random_two_qubit(rng)
    eps = 10.0 ** rng.uniform(-6.3, -5.7) / (1.0 - n @ pauli_decompose(tau).a)
    rho = (1 - eps) * np.kron(np.outer(psi, psi.conj()), sigma) + eps * tau.matrix
    return validate_density(rho, (2, 2))


def test_near_product_witnesses_are_hermitian():
    # Steering probabilities reach ~1e-7 here; the witness state must still
    # validate at the 1e-10 Hermiticity tolerance.
    rng = np.random.default_rng(11)
    for _ in range(200):
        res = msc_two_qubit(_near_product(rng))
        assert res.converged
        assert abs(res.value - coherence_l1(res.steered_state, res.reference_basis)) <= 1e-9


def test_sweep_of_no_channels_is_empty():
    for state in (werner(0.5).state, random_density_matrix(np.random.default_rng(1), (3, 2))):
        values, converged = msc_sweep(state, *bloch_stack([]))
        assert values.shape == converged.shape == (0,)
        assert values.dtype == float
        assert converged.dtype == bool


def test_sweep_needs_a_qubit_bob():
    # The Bloch action (Q, c) acts on a qubit; a qutrit Bob, or a state that
    # is not bipartite, is refused before anything is solved.
    q, c = damping_bloch([0.0, 0.5])
    for state in (random_density_matrix(np.random.default_rng(1), (2, 3)),
                  random_density_matrix(np.random.default_rng(2), (3, 3)),
                  random_density_matrix(np.random.default_rng(3), (4,))):
        with pytest.raises(DimensionMismatch):
            msc_sweep(state, q, c)


# ---------- degenerate branch (b = 0): the middle-semiaxis certificate ----------


def _b0_state(rng):
    # [[1, 0], [a, T]]: b = 0, |a| in [0.1, 0.9] and a random T with
    # |a| + ||T||_* < 1, which bounds the norm of a.sigma x 1 + T_ij sigma_i x
    # sigma_j by 1 and so keeps the state positive.
    theta = np.zeros((4, 4))
    theta[0, 0] = 1.0
    a = rng.standard_normal(3)
    theta[1:, 0] = a * rng.uniform(0.1, 0.9) / np.linalg.norm(a)
    t = rng.standard_normal((3, 3))
    theta[1:, 1:] = t * rng.uniform(0.5, 1.0) * (1 - np.linalg.norm(theta[1:, 0])) / np.linalg.norm(t, "nuc")
    return pauli_compose(theta)


def test_classical_b0_states_vanish(rng):
    # Equal weights put Bob's marginal at b = 0 and the QSE on a segment
    # through its center: the middle semiaxis is 0 and the major axis
    # attains it.
    states = [rho_c(0.5).state]
    for _ in range(20):
        alice = [random_density_matrix(rng, (2,)) for _ in range(2)]
        states.append(classical_state([0.5, 0.5], alice, random_basis(rng, 2)).state)
    for st in states:
        res = msc_two_qubit(st)
        assert res.degenerate_path
        assert res.value <= 1e-12


def test_non_ball_b0_between_middle_semiaxis_and_axis_grid(rng):
    # Every axis n has h(n) = max_u |P (c + M u)| >= s2, the middle semiaxis
    # (Cauchy interlacing), so the infimum is at least s2 and at most h on
    # any axis; h comes here from the QSE's center and frame on a dense
    # hemisphere of axes.
    grid = fibonacci_sphere(2000)
    grid = grid[grid[:, 2] >= 0]
    proj = np.eye(3) - grid[:, :, None] * grid[:, None, :]
    for _ in range(50):
        st = _b0_state(rng)
        res = msc_two_qubit(st)
        ell = qse(st)
        h = max_norm_on_sphere(proj @ ell.center, proj @ (ell.frame * ell.semiaxes))[0]
        assert res.degenerate_path
        assert res.value >= ell.semiaxes[1] - 1e-12
        assert res.value <= h.min() + 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(lists(floats(-1.0, 1.0, allow_subnormal=False), min_size=9, max_size=9), floats(0.0, 1.0))
def test_a0_b0_value_is_middle_singular_value(entries, scale):
    # a = b = 0 centers the QSE at the origin, on its major axis, where the
    # middle singular value of T is attained. ||T||_* <= 1 keeps the state
    # positive.
    t = np.reshape(entries, (3, 3))
    nuc = np.linalg.norm(t, "nuc")
    theta = np.zeros((4, 4))
    theta[0, 0] = 1.0
    theta[1:, 1:] = t * scale / nuc if nuc > 0 else t
    res = msc_two_qubit(pauli_compose(theta))
    assert res.degenerate_path
    assert res.value == pytest.approx(np.linalg.svd(theta[1:, 1:], compute_uv=False)[1], abs=1e-12)


def test_stack_rows_carry_their_own_alice_marginal(rng):
    # Each row of a stack is whitened by its own a: a shuffled stack of
    # random, a = 0, damped, Werner (b = 0) and non-ball b = 0 forms solves
    # every row exactly as the row alone does.
    states = [random_two_qubit(rng), random_canonical(rng), apply_on_b(random_two_qubit(rng), amplitude_damping(0.4))]
    states += [werner(0.6).state, _b0_state(rng), random_two_qubit(rng), _b0_state(rng)]
    stack = np.array([pauli_decompose(st).theta for st in states])[rng.permutation(len(states))]
    solved = msc._solve_pauli_stack(stack)
    for k in range(len(stack)):
        alone = msc._solve_pauli_stack(stack[k : k + 1])
        for got, want in zip(solved[:6], alone[:6]):
            np.testing.assert_array_equal(got[k], want[0])
    # A pure Alice marginal on a later row stops the whole stack.
    product = validate_density(np.kron(np.diag([1.0, 0.0]), random_density_matrix(rng, (2,)).matrix), (2, 2))
    with pytest.raises(TrivialProductState):
        msc._solve_pauli_stack(np.array([stack[0], stack[1], pauli_decompose(product).theta]))


@pytest.mark.parametrize("entry", [(1, 2, 3), (1, 1, 0), (1, 0, 2)], ids=["T", "a", "b"])
def test_stack_with_a_nan_raises(rng, entry):
    # NaN passes every `<=` and `>` comparison, and the eigensolvers raise a
    # bare LinAlgError on it (or return NaN): a non-finite form is refused
    # up front, so no NaN value or witness is returned.
    stack = np.array([pauli_decompose(random_two_qubit(rng)).theta for _ in range(2)])
    stack[entry] = np.nan
    with pytest.raises(QsteerError):
        msc._solve_pauli_stack(stack)


def test_stack_guards_fail_on_nan(monkeypatch, rng):
    # A NaN made inside the solve, here a NaN trust-region step, trips the
    # outcome-probability guard; the marginal guard refuses a NaN eigenvalue.
    stack = np.array([pauli_decompose(random_two_qubit(rng)).theta for _ in range(2)])
    inner = msc._inner

    def nan_step(c, m_mat, n_hat):
        values, u, converged = inner(c, m_mat, n_hat)
        return values, np.full_like(u, np.nan), converged

    monkeypatch.setattr(msc, "_inner", nan_step)
    with pytest.raises(ZeroProbability):
        msc._solve_pauli_stack(stack)
    with pytest.raises(SingularMarginal):
        _require_mixed(np.nan)


def _bloch_ket(angle):
    return np.array([np.cos(angle / 2), np.sin(angle / 2)])


def _witness_families(rng):
    # Seeded two-qubit states of every regime the two-qubit path routes.
    t = rng.dirichlet(np.ones(4)) @ np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
    bell = pauli_compose(np.diag([1.0, *t]))
    alice = [random_density_matrix(rng, (2,)) for _ in range(2)]
    yield "hs", random_two_qubit(rng)
    yield "hs-unital", apply_on_b(random_two_qubit(rng), random_unital_channel(rng))
    yield "canonical", random_canonical(rng)
    alpha = np.arccos(rng.uniform(0.1, 0.95))
    yield "chord", chord_state([1.0, 0.0], _bloch_ket(alpha), _bloch_ket(-alpha)).state
    lam = np.sqrt(rng.uniform(0.55, 0.95))
    yield "pure", pure_schmidt([lam, np.sqrt(1 - lam**2)], random_unitary(rng, 2), random_unitary(rng, 2)).state
    yield "werner", werner(rng.uniform(0.1, 0.9)).state
    yield "bell-diagonal", bell
    yield "non-ball", _b0_state(rng)
    yield "classical-b0", classical_state([0.5, 0.5], alice, random_basis(rng, 2)).state
    yield "near-degenerate", rho_p(0.5, np.pi / 2 - rng.uniform(1e-5, 1e-4)).state


def test_witness_state_equals_steer(rng):
    # steered_state is (1 + x.sigma)/2 from the stack's x; steer of Alice's
    # reported direction stays the independent check: 1e-13 on every regime
    # (6.7e-16 measured), 1e-9 on near-product states (1 - |a| ~ 1e-6, where
    # both routes lose eps / (1 - |a|); 2.0e-10 measured).
    cases = [case for _ in range(10) for case in _witness_families(rng)]
    cases += [("near-product", _near_product(rng)) for _ in range(10)]
    for kind, st in cases:
        res = msc_two_qubit(st)
        want, _ = steer(st, qubit_state(res.optimal_m))
        tol = 1e-9 if kind == "near-product" else 1e-13
        assert res.steered_state.dims == (2,)
        np.testing.assert_allclose(res.steered_state.matrix, want.matrix, rtol=0, atol=tol, err_msg=kind)
