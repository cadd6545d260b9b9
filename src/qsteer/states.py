"""Constructors for the two-qubit (and small qudit) state families studied
by the steered-coherence formalism, each bundled with its closed-form
maximal steered coherence and steering-ellipsoid geometry when one exists.

Families:
  classical_state  zero-discord mixtures sum_i p_i rho_i^A x |xi_i><xi_i|
  rho_c            the two-outcome classical state t|++><++| + (1-t)|--><--|
  rho_p            partially mixed entangled family with a prolate spheroid QSE
  werner           singlet fraction p; the QSE is an origin-centered ball
  maximally_obese  maximal-volume QSE for a given Bob marginal
  chord_state      QSE is a chord of the Bloch sphere (saturates the
                   canonical-state bound sqrt(1 - b^2))
  dlc_state        segment QSE; discordant states locally creatable from
                   classical ones, with interval bounds on their coherence
  pure_schmidt     pure states with full Schmidt rank (maximal coherence)
  x_state          nonzero entries only on the diagonal and anti-diagonal
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryViolation,
    NotFinite,
    ParameterOutOfRange,
    RadialSegment,
    RankDeficient,
    WeightsInvalid,
    WrongDimension,
)
from .qcore import (
    Basis,
    DensityMatrix,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    bloch_vector,
    ket_dm,
    partial_trace,
    qubit_state,
    unit_perpendicular,
    validate_density,
)
from .steering import Ellipsoid, qse

# Smallest Schmidt coefficient a full-Schmidt-rank pure state may have.
SCHMIDT_FLOOR = 1e-8


@dataclass(frozen=True)
class StateFamilyResult:
    """A constructed state plus whatever closed forms the family admits."""

    state: DensityMatrix
    analytic_msc: float | None = None
    analytic_qse: Ellipsoid | None = None
    msc_bounds: tuple[float, float] | None = None


def _axis_ellipsoid(center, semiaxes) -> Ellipsoid:
    order = np.argsort(-np.asarray(semiaxes, dtype=float), kind="stable")
    frame = np.eye(3)[:, order]
    return Ellipsoid(
        center=np.asarray(center, dtype=float),
        semiaxes=np.asarray(semiaxes, dtype=float)[order],
        frame=frame,
    )


def classical_state(weights, alice_states, basis: Basis) -> StateFamilyResult:
    """Zero-discord state sum_i p_i rho_i^A x |xi_i><xi_i|; coherence 0."""
    weights = np.asarray(weights, dtype=float)
    if weights.min() < -1e-12 or abs(weights.sum() - 1.0) > 1e-9:
        raise WeightsInvalid(
            f"weights must be a distribution: min {weights.min():.3e}, sum {weights.sum():.12f}"
        )
    if len(weights) != basis.dim or len(alice_states) != len(weights):
        raise WrongDimension(
            f"need one weight and one Alice state per basis ket: "
            f"{len(weights)} weights, {len(alice_states)} states, dimension {basis.dim}"
        )
    gram = basis.vectors.conj().T @ basis.vectors
    ortho_dev = np.abs(gram - np.eye(basis.dim)).max()
    if ortho_dev > 1e-9:
        raise WrongDimension(f"basis not orthonormal: max |<xi_i|xi_j> - delta| = {ortho_dev:.3e}")
    da = alice_states[0].dim
    rho = np.zeros((da * basis.dim, da * basis.dim), dtype=complex)
    for p, st, k in zip(weights, alice_states, range(basis.dim)):
        rho += p * np.kron(st.matrix, ket_dm(basis.vectors[:, k]))
    return StateFamilyResult(
        state=validate_density(rho, (da, basis.dim)),
        analytic_msc=0.0,
    )


def rho_c(t: float) -> StateFamilyResult:
    """Classical two-qubit state t|++><++| + (1-t)|--><--|."""
    if not 0.0 < t < 1.0:
        raise ParameterOutOfRange(f"t = {t!r} outside (0, 1)")
    plus = validate_density(ket_dm(KET_PLUS), (2,))
    minus = validate_density(ket_dm(KET_MINUS), (2,))
    basis = Basis(vectors=np.column_stack([KET_PLUS, KET_MINUS]))
    return classical_state([t, 1 - t], [plus, minus], basis)


def damped_classical_msc(t: float, gamma: float) -> float:
    """Closed-form coherence of rho_c(t) after amplitude damping on Bob.

    Equals 2 max(t, 1-t) gamma sqrt(1-gamma) / sqrt((1-2t)^2 (1-gamma) +
    gamma^2): zero at gamma = 0 and 1, positive in between.
    """
    tm = max(t, 1.0 - t)
    den = math.sqrt((1 - 2 * t) ** 2 * (1 - gamma) + gamma**2)
    if den == 0.0:
        return 0.0
    return 2 * tm * gamma * math.sqrt(1 - gamma) / den


def rho_p(p: float, theta: float) -> StateFamilyResult:
    """Mixture of cos(theta/2)|++> + sin(theta/2)|--> with white noise.

    The QSE is a prolate spheroid on the x axis; the coherence closed form
    is p sin(theta) / sqrt(1 - (p cos(theta))^2).
    """
    if not math.isfinite(p) or not math.isfinite(theta):
        raise NotFinite(f"p = {p!r} and theta = {theta!r} must be finite")
    if not 0.0 < p < 1.0:
        raise ParameterOutOfRange(f"p = {p!r} outside (0, 1)")
    psi = math.cos(theta / 2) * np.kron(KET_PLUS, KET_PLUS) + math.sin(theta / 2) * np.kron(KET_MINUS, KET_MINUS)
    rho = p * ket_dm(psi) + (1 - p) / 4 * np.eye(4)
    k = p * math.cos(theta)
    c1 = p * (1 - p * math.cos(theta) ** 2) / (1 - k**2)
    c23 = p * math.sin(theta) / math.sqrt(1 - k**2)
    center = (p * (1 - p) * math.cos(theta) / (1 - k**2), 0.0, 0.0)
    return StateFamilyResult(
        state=validate_density(rho, (2, 2)),
        analytic_msc=abs(c23),
        analytic_qse=_axis_ellipsoid(center, [c1, abs(c23), abs(c23)]),
    )


def werner(p: float) -> StateFamilyResult:
    """Singlet fraction p plus white noise; QSE is a ball of radius p."""
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"p = {p!r} outside [0, 1]")
    singlet = (np.kron(KET_0, KET_1) - np.kron(KET_1, KET_0)) / np.sqrt(2)
    rho = p * ket_dm(singlet) + (1 - p) / 4 * np.eye(4)
    return StateFamilyResult(
        state=validate_density(rho, (2, 2)),
        analytic_msc=p,
        analytic_qse=_axis_ellipsoid((0.0, 0.0, 0.0), [p, p, p]),
    )


def maximally_obese(b: float) -> StateFamilyResult:
    """Canonical state whose QSE has maximal volume for Bob marginal (0,0,b)."""
    if not 0.0 <= b < 1.0:
        raise ParameterOutOfRange(f"b = {b!r} outside [0, 1)")
    psi = (math.sqrt(1 - b) * np.kron(KET_0, KET_1) + np.kron(KET_1, KET_0)) / math.sqrt(2 - b)
    rho = (1 - b / 2) * ket_dm(psi) + (b / 2) * ket_dm(np.kron(KET_0, KET_0))
    s = math.sqrt(1 - b)
    return StateFamilyResult(
        state=validate_density(rho, (2, 2)),
        analytic_msc=s,
        analytic_qse=_axis_ellipsoid((0.0, 0.0, b), [s, s, 1 - b]),
    )


def _orthogonal_ket(psi: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(psi[1]), np.conj(psi[0])])


def chord_state(psi, chi, chi_prime) -> StateFamilyResult:
    """Canonical state whose QSE is the chord between the pure states chi
    and chi_prime on the Bloch sphere.

    The chord midpoint is Bob's Bloch vector b and is automatically
    perpendicular to the chord; the coherence saturates the canonical-state
    bound sqrt(1 - b^2). A zero-length midpoint (antipodal chi, chi_prime)
    makes the state classical, where the coherence drops to 0: the
    saturation value is discontinuous at b = 0.
    """
    psi = np.asarray(psi, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    chi_prime = np.asarray(chi_prime, dtype=complex)
    for name, ket in (("psi", psi), ("chi", chi), ("chi_prime", chi_prime)):
        if ket.shape != (2,) or np.linalg.norm(ket) < 1e-12:
            raise ParameterOutOfRange(f"{name} must be a nonzero qubit ket")
    psi = psi / np.linalg.norm(psi)
    chi = chi / np.linalg.norm(chi)
    chi_prime = chi_prime / np.linalg.norm(chi_prime)

    v1 = bloch_vector(ket_dm(chi))
    v2 = bloch_vector(ket_dm(chi_prime))
    mid = (v1 + v2) / 2
    chord_dir = v1 - v2
    if np.linalg.norm(chord_dir) > 1e-12:
        perp_dev = abs(float(mid @ chord_dir)) / np.linalg.norm(chord_dir)
        if perp_dev > 1e-9:
            raise GeometryViolation(
                f"chord midpoint not perpendicular to the chord: deviation {perp_dev:.3e} exceeds 1e-9"
            )
    rho = 0.5 * np.kron(ket_dm(psi), ket_dm(chi)) + 0.5 * np.kron(ket_dm(_orthogonal_ket(psi)), ket_dm(chi_prime))
    b = float(np.linalg.norm(mid))
    half_chord = float(np.linalg.norm(chord_dir)) / 2
    frame = np.eye(3)
    if half_chord > 1e-12:
        e1 = chord_dir / np.linalg.norm(chord_dir)
        e3 = mid / b if b > 1e-12 else unit_perpendicular(e1)
        e2 = np.cross(e3, e1)
        frame = np.column_stack([e1, e2, e3])
    return StateFamilyResult(
        state=validate_density(rho, (2, 2)),
        analytic_msc=math.sqrt(max(0.0, 1 - b * b)) if b > 1e-9 else 0.0,
        analytic_qse=Ellipsoid(center=mid, semiaxes=np.array([half_chord, 0.0, 0.0]), frame=frame),
    )


def dlc_theta1(b1: float, b2: float, theta: float) -> float:
    """Solve b1 sin(t1) = b2 sin(theta - t1) for t1 in [0, theta], theta in [0, pi].

    Im((b1 + b2 e^(i theta)) e^(-i t1)) = b2 sin(theta - t1) - b1 sin(t1), so
    the root is the angle of b1 + b2 e^(i theta), which lies between 0 and theta.
    """
    return math.atan2(b2 * math.sin(theta), b1 + b2 * math.cos(theta))


def dlc_state(b1, b2, q: float) -> StateFamilyResult:
    """State whose QSE is the (nonradial) segment between Bloch points b1, b2.

    Built as q|0><0| x rho(b1) + (1-q)|1><1| x rho(b2). Bob's marginal sits
    at q b1 + (1-q) b2. Attaches interval bounds on the coherence, with
    B1 >= B2 the end norms and theta the angle between the ends:

      lower: min(B1 sin(theta1), B2 sin(theta)), theta1 from dlc_theta1.
             The coherence is the larger of the two ends' distances from
             the line through Bob's marginal; over marginal positions its
             infimum is the equalized value B1 sin(theta1) when theta <=
             pi/2, but for obtuse theta marginals approaching the longer
             end push it down toward B2 sin(theta), so that term joins
             the minimum.
      upper: B1 sin(theta) for theta <= pi/2 (strict), else B1.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if not 0.0 < q < 1.0:
        raise ParameterOutOfRange(f"q = {q!r} outside (0, 1)")
    for name, v in (("b1", b1), ("b2", b2)):
        if np.linalg.norm(v) > 1 + 1e-10:
            raise ParameterOutOfRange(f"|{name}| = {np.linalg.norm(v):.12f} exceeds 1")
    if np.linalg.norm(np.cross(b1, b2)) <= 1e-10:
        raise RadialSegment(
            "segment ends are collinear with the origin: the state is classical "
            "(coherence 0); use classical_state instead"
        )
    rho = q * np.kron(ket_dm(KET_0), qubit_state(b1)) + (1 - q) * np.kron(ket_dm(KET_1), qubit_state(b2))

    n1, n2 = float(np.linalg.norm(b1)), float(np.linalg.norm(b2))
    big, small = (n1, n2) if n1 >= n2 else (n2, n1)
    cosang = float(b1 @ b2) / (n1 * n2)
    theta = math.acos(min(1.0, max(-1.0, cosang)))
    theta1 = dlc_theta1(big, small, theta)
    lower = min(big * math.sin(theta1), small * math.sin(theta))
    upper = big * math.sin(theta) if theta <= math.pi / 2 else big
    mid = q * b1 + (1 - q) * b2
    chord = b1 - b2
    e1 = chord / np.linalg.norm(chord)
    return StateFamilyResult(
        state=validate_density(rho, (2, 2)),
        analytic_qse=Ellipsoid(
            center=(b1 + b2) / 2,
            semiaxes=np.array([np.linalg.norm(chord) / 2, 0.0, 0.0]),
            frame=np.column_stack([e1, unit_perpendicular(e1), np.cross(e1, unit_perpendicular(e1))]),
        ),
        msc_bounds=(lower, upper),
    )


def pure_schmidt(lambdas, u_a=None, u_b=None) -> StateFamilyResult:
    """Pure state sum_i lambda_i U_A|i> x U_B|i> with full Schmidt rank.

    The steered coherence attains the dimensional maximum d_B - 1.
    """
    lam = np.asarray(lambdas, dtype=float)
    d = len(lam)
    if lam.min() < SCHMIDT_FLOOR:
        raise RankDeficient(f"smallest Schmidt coefficient {lam.min():.3e} below tolerance {SCHMIDT_FLOOR:.0e}")
    lam = lam / np.linalg.norm(lam)
    u_a = np.eye(d, dtype=complex) if u_a is None else np.asarray(u_a, dtype=complex)
    u_b = np.eye(d, dtype=complex) if u_b is None else np.asarray(u_b, dtype=complex)
    psi = sum(lam[i] * np.kron(u_a[:, i], u_b[:, i]) for i in range(d))
    return StateFamilyResult(
        state=validate_density(ket_dm(psi), (d, d)),
        analytic_msc=float(d - 1),
    )


def x_state(diagonal, anti_diagonal) -> StateFamilyResult:
    """Two-qubit state with nonzero entries only on the diagonal and
    anti-diagonal of the computational-basis matrix.

    Bob's Bloch vector lies along a QSE axis for such states, so the
    coherence equals the longest of the two semiaxes not aligned with it
    (the middle semiaxis when Bob's marginal is maximally mixed).
    """
    d = np.asarray(diagonal, dtype=float)
    z = np.asarray(anti_diagonal, dtype=complex)
    if d.shape != (4,) or z.shape != (2,):
        raise WrongDimension(f"expected 4 diagonal and 2 anti-diagonal entries, got {d.shape}, {z.shape}")
    rho = np.diag(d).astype(complex)
    rho[0, 3] = z[0]
    rho[3, 0] = np.conj(z[0])
    rho[1, 2] = z[1]
    rho[2, 1] = np.conj(z[1])
    state = validate_density(rho, (2, 2))
    ell = qse(state)
    bob = bloch_vector(partial_trace(state, 1).matrix)
    b_norm = np.linalg.norm(bob)
    if b_norm > 1e-9:
        align = np.abs(ell.frame.T @ (bob / b_norm))
        along = int(np.argmax(align))
        transverse = [ell.semiaxes[i] for i in range(3) if i != along]
        analytic = float(max(transverse))
    else:
        analytic = float(np.sort(ell.semiaxes)[1])
    return StateFamilyResult(state=state, analytic_msc=analytic, analytic_qse=ell)
