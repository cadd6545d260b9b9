"""Maximal steered coherence optimizers and brute-force oracles.

The two-qubit path is exact: the coherence of a steered point x in the
basis along n is |P x| with P = 1 - n n^T, so over the steering ellipsoid
{c + M u : |u| = 1} the maximum is a trust-region subproblem in u, solved
globally, and the optimal u maps back to Alice's measurement direction
through the whitening map; the witness state (1 + x.sigma)/2 of the steered
point x and the basis along n are read off that solve. When Bob's marginal is
degenerate (b = 0) the reference basis is ambiguous and the value is the
infimum over basis axes n_B of that exact inner maximum. The middle
semiaxis bounds that infimum from below and is attained on the major axis
when the center lies on it (every a = 0 state, classical b = 0 states):
_minimax returns an axis that meets the bound to MINIMAX_GAP and scans the
axes only when none does. The trust-region step takes stacks: msc_sweep
solves a state under a list of Bob-side channels as one stack of Pauli
forms, msc_two_qubit is its one-row case, and _minimax solves its
candidate axes and each scan or cap level of axes as one stack.

The general-dimension path maximizes the l1 coherence of the steered state
over rank-one POVM elements |psi><psi| on Alice's side; for a fixed
reference basis the steered state of any POVM element is an outcome-weighted
convex mixture of rank-one steered states and the l1 coherence is convex in
the state, so rank-one elements suffice. Whitened by rho_A's support, the
coherence becomes 2 sum_p |phi^dag A_p phi| over unit phi, whose maximum
is the largest lambda_max(H(w)) over phase vectors w (phase lifting); an
ascent that alternates the exact best w and the exact best phi climbs it
from a batch of seeded starts. Degenerate marginals add a descent for the
infimum over Bob's block unitaries: by Danskin's theorem each witness of
the ascent gives a one-sided derivative tr(G H) along V exp(iH), and Armijo
steps follow minus the min-norm point of the witnesses' G (as in gradient
sampling, Burke, Lewis & Overton, SIAM J. Optim. 15 (2005)). A pure state
of Schmidt rank r steers Bob to any ket of rho_B's support, so its MSC is
r - 1, the most l1 coherence on r levels (Baumgratz, Cramer & Plenio, PRL
113, 140401 (2014)), in any admissible basis: a closed form, no search.

Both solvers take only a state. Both call Bob's marginal degenerate at one
threshold, qcore.DEGENERACY_TOL: the two-qubit path tests |b| and the
general path the gaps between rho_B's eigenvalues, and for a qubit that gap
is |b|. The outer searches' budgets and the seed are module constants.

msc_oracle is an independent grid brute force used to validate both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import apply_on_b_pauli
from .coherence import coherence_l1
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NotBipartite,
    NotFinite,
    NotPSD,
    TrivialProductState,
    WrongDimension,
    ZeroProbability,
)
from .optimize import max_norm_on_sphere
from .qcore import (
    Basis,
    DEGENERACY_TOL,
    DensityMatrix,
    PAULIS,
    PSD_TOL,
    bloch_basis,
    degenerate_blocks,
    eigen_hermitian,
    fibonacci_sphere,
    partial_trace,
    pauli_decompose,
    unit_perpendicular,
    validate_density,
    validate_pauli_forms,
)
from .steering import SINGULAR_MARGINAL_TOL, ZERO_PROBABILITY_TOL, _whiten, _whitened_map

TRIVIAL_A_TOL = 1e-9
# Above DEGENERACY_TOL, a |b| below this still gets a warning: the reference
# basis along b is ill-conditioned.
NEAR_DEGENERATE_TOL = 1e-4
# The two-qubit infimum over basis axes: certified when a candidate axis is
# within MINIMAX_GAP of the middle-semiaxis lower bound; otherwise a
# hemisphere scan of OUTER_GRID axes, then OUTER_LEVELS shrinking caps of
# OUTER_CAP_POINTS axes each.
MINIMAX_GAP = 1e-10
OUTER_GRID = 72
OUTER_LEVELS = 10
OUTER_CAP_POINTS = 20
# The general path's infimum over block unitaries: a descent from
# DESCENT_STARTS bases of at most DESCENT_MAXITER Armijo steps, each no
# shorter than DESCENT_STEP_FLOOR, valued by trial ascents of TRIAL_MAXITER
# steps whose witnesses lie within rtol * max(1, lambda) of the top, rtol
# running through WITNESS_RTOLS.
DESCENT_STARTS = 6
DESCENT_MAXITER = 200
DESCENT_STEP_FLOOR = 1e-6
TRIAL_MAXITER = 15
WITNESS_RTOLS = (1e-2, 1e-3, 1e-4)
# The general path's eigen-ascent: a seeded start steps until its lambda
# rises by at most ASCENT_RTOL * max(1, lambda) in one step (roundoff makes a
# settled lambda jitter by ~1e-15), or ASCENT_MAXITER steps. The descent
# also reads a predicted decrease below that as stationary.
ASCENT_STARTS = 32
ASCENT_MAXITER = 1000
ASCENT_RTOL = 1e-14
# Seeds the ascent's starts and the descent's random block rotations.
SEED = 7


@dataclass(frozen=True)
class MscResult:
    """Outcome of an MSC optimization.

    optimal_m is a unit Bloch vector on the two-qubit path and Alice's
    rank-one measurement ket on the general path. degenerate_path records
    whether the infimum-over-bases branch was taken. value equals the l1
    coherence of steered_state in reference_basis to roundoff.
    """

    value: float
    optimal_m: np.ndarray
    steered_state: DensityMatrix
    reference_basis: Basis
    degenerate_path: bool
    converged: bool = True
    warnings: tuple[str, ...] = field(default=())


# ---------- deterministic direction grids ----------


def _vdc2(n: int) -> np.ndarray:
    # van der Corput base-2 sequence, vectorized.
    i = np.arange(n, dtype=np.int64)
    v = np.zeros(n)
    f = 0.5
    while i.max(initial=0) > 0:
        v += f * (i & 1)
        i >>= 1
        f /= 2
    return v


def sphere_sequence(n: int) -> np.ndarray:
    """Prefix-nested low-discrepancy sphere sequence (golden-angle azimuth).

    The first k points for any k < n are exactly sphere_sequence(k), so
    grid maxima are monotone in the resolution by construction.
    """
    z = 1.0 - 2.0 * _vdc2(n)
    phi = 2.399963229728653 * np.arange(n)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


# ---------- two-qubit path ----------


def _inner(c, m_mat, n_hat):
    """Stacked exact max of |x x n| over {c + M u} per axis row n of n_hat; returns (values, u, converged)."""
    p = np.eye(3) - n_hat[:, :, None] * n_hat[:, None, :]
    return max_norm_on_sphere((p @ c[..., None])[..., 0], p @ m_mat)


def _cap_grid(center: np.ndarray, radius: float, k: int) -> np.ndarray:
    # Deterministic spiral of k directions inside the spherical cap.
    e1 = unit_perpendicular(center)
    e2 = np.cross(center, e1)
    i = np.arange(k)
    r = radius * np.sqrt((i + 0.5) / k)
    az = 2.399963229728653 * i
    tang = np.outer(np.cos(az), e1) + np.outer(np.sin(az), e2)
    pts = np.outer(np.cos(r), center) + np.sin(r)[:, None] * tang
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _minimax(c, m_mat):
    """inf over basis axes n of the inner maximum; returns (n, u, converged).

    The middle singular value s2 of M bounds the infimum from below: for
    every n, max_u |P (c + M u)| >= max(|P c +- P M u*|) >= sigma_max(P M)
    >= s2, the last step by Cauchy interlacing of M M^T compressed to n's
    plane. The bound is attained on the major axis when c lies on it, and
    on c's axis when c lies in a degenerate top plane, so both are solved
    first; when the lower one is within MINIMAX_GAP of s2 it is returned.
    Otherwise the axis scan runs and the lower of its result and theirs is
    returned.
    """

    def lowest(axes, best=None):
        # One stacked solve over the axes; the incumbent stays unless a
        # candidate is strictly lower.
        values, us, convs = _inner(c, m_mat, axes)
        k = int(np.argmin(values))
        return (values[k], axes[k], us[k], convs[k]) if best is None or values[k] < best[0] else best

    # s2 from the svd of M: the square root of an eigenvalue of M M^T errs
    # by up to sqrt(eps) when s2 is small, and the bound would not hold.
    frame, s, _ = np.linalg.svd(m_mat)
    c_norm = math.sqrt(c @ c)
    candidate = lowest(np.stack([frame[:, 0], c / c_norm]) if c_norm > 0 else frame[:, :1].T)
    if candidate[0] <= s[1] + MINIMAX_GAP:
        return candidate[1:]

    # n and -n give the same basis, so scan one hemisphere; the outer
    # objective is a max of branches (kinked at the minimum), so refine by
    # shrinking-cap grids around the incumbent instead of a simplex.
    grid = fibonacci_sphere(2 * OUTER_GRID)
    best = lowest(grid[grid[:, 2] >= 0][:OUTER_GRID])
    radius = 2.2 / math.sqrt(OUTER_GRID)
    for _ in range(OUTER_LEVELS):
        best = lowest(_cap_grid(best[1], radius, OUTER_CAP_POINTS), best)
        radius *= 0.4
    return min(best, candidate, key=lambda r: r[0])[1:]


def _solve_pauli_stack(theta: np.ndarray):
    """Two-qubit MSC of each row of a stack of Pauli forms (N, 4, 4), each whitened by its own a.

    Rows with |b| >= DEGENERACY_TOL take the axis along b and one stacked
    trust-region call, the others _minimax. Each value is |x x n| for the
    witness's steered Bloch vector x = (b + T^T m) / (1 + a.m), checked as
    steer checks it; any row with 1 - |a| <= TRIVIAL_A_TOL raises
    TrivialProductState; a non-finite form raises NotFinite, and every
    guard fails on NaN. Returns (value, m, n, x, converged, degenerate, |b|).
    """
    if not np.isfinite(theta).all():
        raise NotFinite("Pauli forms have non-finite entries")
    a = theta[:, 1:, 0]
    a_norm = np.sqrt((a * a).sum(1)).max()
    if 1.0 - a_norm <= TRIVIAL_A_TOL:
        raise TrivialProductState(
            f"|a| = {a_norm:.12f}: Alice's marginal is pure within {TRIVIAL_A_TOL:.0e}, "
            "the state is a product and all steered states coincide"
        )
    c, m_mat, lam = _whiten(theta)
    b = theta[:, 0, 1:]
    b_norm = np.hypot.reduce(b, axis=1)
    degenerate = b_norm < DEGENERACY_TOL
    # The eigenbasis of rho_B = (1 + b.sigma)/2, taken from the unit axis:
    # an eigensolve of rho_B itself loses digits as its gap |b| shrinks.
    # Degenerate rows get a placeholder axis here and _minimax's below.
    n_hat = b / np.maximum(b_norm, DEGENERACY_TOL)[:, None]
    _, u, converged = _inner(c, m_mat, n_hat)
    for k in degenerate.nonzero()[0]:
        n_hat[k], u[k], converged[k] = _minimax(c[k], m_mat[k])

    m = (lam[:, 1:, 1:] @ u[..., None])[..., 0] + lam[:, 1:, 0]
    m /= np.hypot.reduce(m, axis=1)[:, None]
    den = 1.0 + (m * a).sum(1)
    if not den.min() / 2 > ZERO_PROBABILITY_TOL:
        raise ZeroProbability(f"outcome probability {den.min() / 2:.3e} below threshold {ZERO_PROBABILITY_TOL:.0e}")
    x = (b + (m[:, None, :] @ theta[:, 1:, 1:])[:, 0]) / den[:, None]
    x_norm = np.hypot.reduce(x, axis=1).max()
    if not x_norm <= 1.0 + 2 * PSD_TOL:
        raise NotPSD(f"steered Bloch vector of length {x_norm:.12f} exceeds 1 + {2 * PSD_TOL:.0e}")
    perp = x - (x * n_hat).sum(axis=1)[:, None] * n_hat
    return np.hypot.reduce(perp, axis=1), m, n_hat, x, converged, degenerate, b_norm


def msc_two_qubit(state: DensityMatrix) -> MscResult:
    """Maximal steered coherence of a two-qubit state with a witness.

    The one-row case of the stacked solve (_solve_pauli_stack). Routes to
    the infimum branch automatically when Bob's marginal is degenerate
    (|b| below DEGENERACY_TOL). Raises TrivialProductState when Alice's
    marginal is pure (|a| = 1), where steering is trivial. The value is the
    coherence |x x n| of the witness, Alice's direction from the exact
    trust-region optimum; steered_state is (1 + x.sigma)/2, checked there.
    """
    if state.dims != (2, 2):
        raise WrongDimension(f"two-qubit path needs dims (2, 2), got {state.dims}")
    value, m, n_hat, x, converged, degenerate, b_norm = _solve_pauli_stack(pauli_decompose(state).theta[None])
    warnings: tuple[str, ...] = ()
    if DEGENERACY_TOL <= b_norm[0] < NEAR_DEGENERATE_TOL:
        warnings = (
            f"|b| = {b_norm[0]:.3e} is between the degeneracy tolerance and "
            f"{NEAR_DEGENERATE_TOL:.0e}: the reference basis is ill-conditioned",
        )
    x1, x2, x3 = x[0]
    return MscResult(
        value=float(value[0]),
        optimal_m=m[0],
        steered_state=DensityMatrix((2,), np.array([[1 + x3, x1 - 1j * x2], [x1 + 1j * x2, 1 - x3]]) / 2),
        reference_basis=bloch_basis(n_hat[0]),
        degenerate_path=bool(degenerate[0]),
        converged=bool(converged[0]),
        warnings=warnings,
    )


def msc_sweep(state: DensityMatrix, q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MSC of the state after each qubit channel v -> Q_n v + c_n on Bob's side; returns (values, converged).

    q (N, 3, 3), c (N, 3) come from channels.bloch_stack or damping_bloch. A two-qubit Pauli form is mapped
    (apply_on_b_pauli) and solved as one stack; for d_A >= 3 (or N = 0) Bob's Pauli blocks X_nu map to
    each rho' = sum_nu X'_nu x sigma_nu / 2, solved by msc_general.
    """
    if state.dims[1:] != (2,):
        raise DimensionMismatch(f"a sweep acts on a qubit Bob, got dims {state.dims}")
    if state.dims != (2, 2) or not len(q):
        d, paulis = state.dims[0], np.array(PAULIS)
        x = np.einsum("vba,iajb->ijv", paulis, state.matrix.reshape(d, 2, d, 2)).reshape(d * d, 4)
        out = 0.5 * np.einsum("nijv,vab->niajb", apply_on_b_pauli(x, q, c).reshape(-1, d, d, 4), paulis)
        results = [msc_general(validate_density(m.reshape(2 * d, 2 * d), state.dims)) for m in out]
        return np.array([r.value for r in results], dtype=float), np.array([r.converged for r in results], dtype=bool)
    theta = apply_on_b_pauli(pauli_decompose(state).theta, q, c)
    validate_pauli_forms(theta)
    value, _, _, _, converged, _, _ = _solve_pauli_stack(theta)
    return value, converged


# ---------- general-dimension path ----------


def _maximize_rank1(smap: np.ndarray, vectors: np.ndarray, extra=None, maxiter: int = ASCENT_MAXITER):
    """Steered coherence ascent over whitened kets phi in basis V; returns (lam, phi, settled) per start.

    In basis V the whitened steering map T (steering._whitened_map) gives
    pair blocks A_p = sum_{b,d} conj(V_bi) T[b, d] V_dj, p = (i < j), and
    unit phi the coherence 2 sum_p |phi^dag A_p phi|. As 2|z| = max over
    unit w of (conj(w) z + w conj(z)), the maximum is the largest
    lambda_max(H(w)), H(w) = sum_p (conj(w_p) A_p + w_p A_p^dag).
    Two exact steps alternate and never lower lambda: w_p = phase(phi^dag
    A_p phi), then phi = the top eigenvector of H(w). ASCENT_STARTS seeded
    starts, then the rows of extra (unit phi, such as earlier witnesses),
    step as one batch of the live starts for at most maxiter steps; a start
    settles, and leaves the batch, when its stop test passes, so its
    trajectory does not depend on its batch mates.
    """
    iu, ju = np.triu_indices(len(vectors), 1)
    a = np.einsum("bi,bdxy,dj->ijxy", vectors.conj(), smap, vectors)[iu, ju]
    rng = np.random.default_rng(SEED)
    shape = (ASCENT_STARTS, smap.shape[2])
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if extra is not None:
        phi = np.concatenate([phi, extra])
    lam = np.full(len(phi), -np.inf)
    settled = np.zeros(len(phi), dtype=bool)
    # top, cur: the live starts' (lambda, phi); their rows are written on settling or after the last step.
    live, top, cur = np.arange(len(phi)), lam, phi
    for _ in range(maxiter):
        w = np.exp(1j * np.angle(np.einsum("sa,pab,sb->sp", cur.conj(), a, cur)))
        h = np.einsum("sp,pab->sab", w.conj(), a)
        vals, vecs = np.linalg.eigh(h + h.conj().transpose(0, 2, 1))
        done = vals[:, -1] - top <= ASCENT_RTOL * np.maximum(1.0, vals[:, -1])
        top, cur = vals[:, -1], vecs[:, :, -1]
        if done.any():
            lam[live], phi[live], settled[live] = top, cur, done
            live, top, cur = live[~done], top[~done], cur[~done]
            if not live.size:
                break
    lam[live], phi[live] = top, cur
    return lam, phi, settled


def _expm_i_hermitian(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _witnesses(lam: np.ndarray, phi: np.ndarray, rtol: float) -> tuple[float, np.ndarray]:
    """The top lambda and the starts within rtol * max(1, top) of it, best first, one per ray (overlap < 1 - rtol)."""
    top = float(lam.max())
    keep: list[int] = []
    for s in np.argsort(-lam, kind="stable"):
        if lam[s] < top - rtol * max(1.0, top):
            break
        if all(abs(np.vdot(phi[k], phi[s])) < 1.0 - rtol for k in keep):
            keep.append(int(s))
    return top, phi[keep]


def _steered_operator(smap: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bob's unnormalized steered operator S = phi^dag T phi for the whitened ket phi; tr S = |phi|^2 up to roundoff."""
    return np.einsum("x,bdxy,y->bd", phi.conj(), smap, phi)


def _witness_gradient(smap: np.ndarray, vectors: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """G with d/dt coherence(phi, V exp(itH)) = tr(G H) at t = 0: the Hermitian part of i(P^dag B - B P^dag).

    B = V^dag S V for the whitened ket phi's steered operator S (_steered_operator) and
    P_ij = B_ij/|B_ij| off the diagonal, since d|B_ij| = Re(conj(P_ij) dB_ij) and dB = i(BH - HB).
    """
    b = vectors.conj().T @ _steered_operator(smap, phi) @ vectors
    mag = np.abs(b)
    np.fill_diagonal(mag, 0.0)
    p = np.divide(b, mag, out=np.zeros_like(b), where=mag > 0)
    c = 1j * (p.conj().T @ b - b @ p.conj().T)
    return (c + c.conj().T) / 2


def _min_norm_point(g: np.ndarray) -> np.ndarray:
    """Frank-Wolfe min-norm point of the convex hull of the Hermitian matrices g[k]."""
    q = np.einsum("kij,lij->kl", g.conj(), g).real
    e = np.eye(len(g))
    x = e[np.argmin(np.diag(q))]
    for _ in range(100):
        qx = q @ x
        k = int(np.argmin(qx))
        gap = x @ qx - qx[k]
        # Every G_k then has <G_k, X> >= 0.999 |X|^2: -X descends for all.
        if gap <= 1e-3 * (x @ qx):
            break
        # Exact line search toward vertex k: |G_k - X|^2 = q_kk - 2 (Qx)_k + x.Qx.
        x = x + min(1.0, gap / (q[k, k] - qx[k] + gap)) * (e[k] - x)
    return np.einsum("k,kij->ij", x, g)


def _descend(smap: np.ndarray, vectors: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Armijo descent of the inner maximum over V -> V exp(-i t D/|D|); returns the end basis.

    D is the min-norm point of the masked gradients of the witnesses within rtol of the top, so -D
    lowers each at rate >= |D| to first order. When no step of DESCENT_STEP_FLOOR or more passes,
    or the predicted decrease t|D| is within the value's roundoff (ASCENT_RTOL), rtol tightens to
    the next WITNESS_RTOLS entry: an rtol-stationary point need not be stationary.
    """
    lam, phi, _ = _maximize_rank1(smap, vectors, maxiter=TRIAL_MAXITER)
    rtols = iter(WITNESS_RTOLS)
    rtol, t = next(rtols), 1.0
    for _ in range(DESCENT_MAXITER):
        value, wit = _witnesses(lam, phi, rtol)
        grads = np.array([_witness_gradient(smap, vectors, f) for f in wit]) * mask
        d = _min_norm_point(grads)
        norm = np.linalg.norm(d)
        while t >= DESCENT_STEP_FLOOR and t * norm > ASCENT_RTOL * max(1.0, value):
            trial = vectors @ _expm_i_hermitian(-t / norm * d)
            trial_lam, trial_phi, _ = _maximize_rank1(smap, trial, wit, TRIAL_MAXITER)
            if trial_lam.max() <= value - t * norm / 2:
                vectors, lam, phi, t = trial, trial_lam, trial_phi, min(1.0, 2 * t)
                break
            t /= 2
        else:
            rtol, t = next(rtols, None), 1.0
            if rtol is None:
                break
    return vectors


def msc_general(state: DensityMatrix) -> MscResult:
    """Maximal steered coherence for bipartite states with dimensions <= 4.

    Maximizes the steered l1 coherence in the eigenbasis of Bob's marginal
    over rank-one POVM elements by the phase-lifted eigen-ascent. Degenerate
    marginals take the infimum over the eigenbasis freedom of every
    degenerate block: a witness-gradient descent (_descend) from the
    eigenbasis and DESCENT_STARTS - 1 seeded random block rotations, keeping
    the end basis whose full ascent is lowest. A rank-one state (second
    eigenvalue at most SINGULAR_MARGINAL_TOL) skips both: its witness steers
    Bob to the sum of rho_B's r support eigenvectors, coherence r - 1 in
    the eigenbasis. Every route ends in a whitened witness ket phi: the
    steered state is phi^dag T phi over its trace (_steered_operator), the
    value its coherence, and optimal_m is R phi normalized.
    """
    if not state.is_bipartite:
        raise NotBipartite(f"need a bipartite state, got dims {state.dims}")
    da, db = state.dims
    if da > 4 or db > 4:
        raise DimensionTooLarge(f"general path supports subsystem dimensions <= 4, got {state.dims}")
    eigs, basis = eigen_hermitian(partial_trace(state, 1).matrix)
    smap, whiten = _whitened_map(state)
    evals, evecs = np.linalg.eigh(state.matrix)
    if evals[-2] <= SINGULAR_MARGINAL_TOL:
        # Rank one, rho = Psi Psi^dag: phi steers to K^T conj(phi), K = R^dag Psi with K K^dag = 1_r, so
        # phi = K conj(x) steers to x, the sum of Bob's r support vectors, with coherence r - 1, the most
        # on r levels; every admissible basis spans the support with r vectors, so no descent runs.
        k = whiten.conj().T @ (math.sqrt(evals[-1]) * evecs[:, -1]).reshape(da, db)
        phi, converged, vectors = k @ basis.vectors[:, : k.shape[0]].sum(axis=1).conj(), True, basis.vectors
    else:

        def solve(vectors):
            lam, phi, settled = _maximize_rank1(smap, vectors)
            best = int(np.argmax(lam))
            return float(lam[best]), phi[best], bool(settled[best]), vectors

        starts = [basis.vectors]
        if basis.degenerate:
            mask = np.zeros((db, db), dtype=bool)
            for blk in degenerate_blocks(eigs, DEGENERACY_TOL):
                mask[np.ix_(blk, blk)] = True
            rng = np.random.default_rng(SEED)
            shape = (DESCENT_STARTS - 1, db, db)
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            starts += [basis.vectors @ _expm_i_hermitian((h + h.conj().T) * mask) for h in g]
            starts = [_descend(smap, v, mask) for v in starts]
        _, phi, converged, vectors = min((solve(v) for v in starts), key=lambda c: c[0])
    # Normalized by its computed trace, not |phi|^2: the two differ by roundoff, which the unit-trace check sees.
    s = _steered_operator(smap, phi)
    steered = validate_density((s + s.conj().T) / (2 * s.trace().real), (db,))
    ref = Basis(vectors=vectors, degenerate=basis.degenerate)
    psi = whiten @ phi
    return MscResult(
        value=coherence_l1(steered, ref),
        optimal_m=psi / np.linalg.norm(psi),
        steered_state=steered,
        reference_basis=ref,
        degenerate_path=basis.degenerate,
        converged=converged,
    )


# ---------- brute-force oracle ----------


def _grid_kets_qutrit(resolution: int) -> np.ndarray:
    # Product-of-angles grid on CP^2.
    na = max(2, int(round(resolution**0.25)))
    alpha = np.linspace(0.0, np.pi / 2, na)
    beta = np.linspace(0.0, np.pi / 2, na)
    ph1 = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
    ph2 = np.linspace(0.0, 2 * np.pi, na, endpoint=False)
    a, b, p1, p2 = np.meshgrid(alpha, beta, ph1, ph2, indexing="ij")
    kets = np.stack(
        [
            np.cos(a),
            np.sin(a) * np.cos(b) * np.exp(1j * p1),
            np.sin(a) * np.sin(b) * np.exp(1j * p2),
        ],
        axis=-1,
    )
    return kets.reshape(-1, 3)


def msc_oracle(state: DensityMatrix, resolution: int, basis: Basis | None = None) -> float:
    """Grid lower bound on the maximal steered coherence.

    Scans a deterministic grid of rank-one measurement directions (the
    nested sphere sequence for qubit Alice, a product-of-angles grid for
    qutrit Alice) and returns the largest steered coherence found in the
    given reference basis (default: the eigenbasis of Bob's marginal).
    Always a lower bound of the true maximum over that basis; monotone in
    the resolution for qubit Alice by grid nesting.
    """
    if not state.is_bipartite:
        raise NotBipartite(f"need a bipartite state, got dims {state.dims}")
    da, db = state.dims
    if da > 3:
        raise DimensionTooLarge(f"oracle supports Alice dimension <= 3, got {da}")
    if basis is None:
        _, basis = eigen_hermitian(partial_trace(state, 1).matrix)

    if da == 2:
        dirs = sphere_sequence(resolution)
        half = np.sqrt(np.clip((1.0 + dirs[:, 2]) / 2.0, 0.0, None))
        shalf = np.sqrt(np.clip((1.0 - dirs[:, 2]) / 2.0, 0.0, None))
        phase = np.exp(1j * np.arctan2(dirs[:, 1], dirs[:, 0]))
        kets = np.stack([half, shalf * phase], axis=1)
    else:
        kets = _grid_kets_qutrit(resolution)

    m_batch = kets[:, :, None] * kets[:, None, :].conj()
    r = state.matrix.reshape(da, db, da, db)
    s_batch = np.einsum("nac,cbad->nbd", m_batch, r)
    p = np.real(np.trace(s_batch, axis1=1, axis2=2))
    v = basis.vectors
    pm = np.einsum("ij,njk,kl->nil", v.conj().T, s_batch, v)
    off = np.abs(pm).sum(axis=(1, 2)) - np.abs(np.diagonal(pm, axis1=1, axis2=2)).sum(axis=1)
    valid = p > ZERO_PROBABILITY_TOL
    if not valid.any():
        return 0.0
    return float((off[valid] / p[valid]).max())
