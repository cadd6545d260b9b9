"""The four benchmark workloads: seeded inputs, the operation that is
timed, and the reference every answer is checked against afterwards.

The workloads reproduce the traffic of `qsteer verify`:

  generic-2q     thm1 (and thm2, the chord and pure-state cases of properties)
  degenerate-2q  closed-forms and degenerate, on b = 0 states
  qudit          the Schmidt part of properties, on the general path
  damping-sweep  damping-curve and fig2-sweep, through `qsteer sweep`

Inputs come from `numpy.random.default_rng(seed)` in a fixed order of
kinds, so one seed always gives the same inputs and every seed gives the
same mix. qsteer receives only the generated states. `coherence`, `states`
and `rand` build inputs and references here and are never timed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import qsteer
import qsteer.cli
from qsteer import rand, states
from qsteer.coherence import coherence_l1

# Tolerances pinned by qsteer.verify (and, for the witness and the QSE, by
# the unit tests). They are copied rather than imported so that a later
# change to verify cannot loosen the yardstick unnoticed.
CLOSED_FORM_TOL = 1e-6  # verify.CLOSED_FORM_TOL
CLASSICAL_ZERO_TOL = 1e-8  # verify.CLASSICAL_ZERO_TOL
SEMI_CLASSICAL_TOL = 1e-8  # verify.SEMI_CLASSICAL_TOL
THM1_TOL = 1e-6  # verify.THM1_TOL
THM2_TOL = 1e-8  # verify.THM2_TOL
CHORD_TOL = 1e-6  # verify.CHORD_TOL
SCHMIDT_TOL = 1e-6  # verify.SCHMIDT_TOL
DOMINANCE_TOL = 1e-9  # verify.DOMINANCE_TOL
DEGENERATE_TOL = 1e-4  # verify.DEGENERATE_TOL
DAMPING_TOL = 1e-6  # verify.DAMPING_TOL
DAMPING_ENDPOINT_TOL = 1e-9  # verify.DAMPING_ENDPOINT_TOL
SWEEP_MIN_GAIN = 1e-4  # verify.SWEEP_MIN_GAIN
FIG2_PAIRS = ((0.9, 0.2), (0.9, 0.1), (0.7, 0.1), (0.5, 0.1))  # verify.FIG2_PAIRS
WITNESS_TOL = 1e-9  # tests/test_msc.py: value == coherence of the witness
QSE_TOL = 1e-8  # tests/test_steering.py: QSE against its closed form

# verify's dominance check scans 3000 directions. Checking every op at that
# resolution would cost more than the ops themselves, so the benchmark scans
# fewer: a coarser grid gives a smaller lower bound, never a looser tolerance.
ORACLE_RESOLUTION = 1000

# Failures that are known defects of qsteer at the time the benchmark was
# defined. They stay in the workloads and lower `verified_frac`. They do not
# make a run incorrect, nor count in the result's `failed`, as long as they
# keep their failure code and their rate; a failure with another code, or
# more failures of a kind than its rate allows, is a regression: it counts
# in `failed` and makes the run incorrect. The rates were
# measured on inputs of seeds 100-119 and 200-219:
#   classical-b0, rho_c(0.5): b = 0 classical states return ~1e-5, not 0
#     (every time).
#   near-product: at 1 - |a| ~ 1e-6 solves end unconverged, and a few raise
#     NotHermitian while validating the steered state (793 of 2000).
#   3x2, 3x3, 3x4: on random states with Alice dimension 3 the general path
#     misses the global maximum (the oracle beats it by up to 0.1), or ends
#     unconverged (41 of 720).
#   4x4, pure-4x4: the general path almost never converges for Alice
#     dimension 4 (79 of 80).


@dataclass(frozen=True)
class Defect:
    codes: frozenset
    rate: float  # failures per op of the kind, measured

    def allowed(self, ops: int) -> float:
        """Most failures in `ops` ops still read as this defect: the
        binomial mean plus four standard deviations, plus one."""
        p = self.rate
        return p * ops + 4.0 * math.sqrt(ops * p * (1.0 - p)) + 1.0


KNOWN_DEFECTS = {
    "classical-b0": Defect(frozenset({"exact"}), 1.0),
    "rho_c(0.5)": Defect(frozenset({"exact"}), 1.0),
    "near-product": Defect(frozenset({"unconverged", "raised NotHermitian"}), 0.40),
    "3x2": Defect(frozenset({"dominance", "unconverged"}), 0.06),
    "3x3": Defect(frozenset({"dominance", "unconverged"}), 0.06),
    "3x4": Defect(frozenset({"dominance", "unconverged"}), 0.06),
    "4x4": Defect(frozenset({"unconverged"}), 0.99),
    "pure-4x4": Defect(frozenset({"unconverged"}), 0.99),
}

GRID = 101

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_PAULI_KRON = np.array([[np.kron(si, sj) for sj in _PAULIS] for si in _PAULIS])


@dataclass
class Case:
    """One input. exact is the closed-form MSC where one exists."""

    kind: str
    state: object
    exact: float | None = None
    tol: float = 0.0
    channel: object = None
    argv: list = field(default_factory=list)
    curve: list | None = None  # closed-form sweep values, one per gamma


@dataclass
class Verdict:
    """Outcome of one check; code names the failed check ("" when ok)."""

    code: str = ""
    error: float | None = None  # |value - exact| where a closed form exists
    why: str = ""

    @property
    def ok(self) -> bool:
        return not self.code


# ---------- independent references ----------


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """tr(rho sigma_i x sigma_j), computed here rather than by qsteer.qcore."""
    return np.real(np.einsum("ijkl,lk->ij", _PAULI_KRON, rho))


def qse_closed_form(rho: np.ndarray):
    """Steering-ellipsoid center and descending squared semiaxes.

    c = (b - T^T a)/(1 - a^2),
    Q = (T^T - b a^T)(1 + a a^T/(1 - a^2))(T - a b^T)/(1 - a^2),
    squared semiaxes = eig Q (Jevtic, Pusey, Jennings & Rudolph, PRL 113,
    020402 (2014)). Squares are compared because the square root turns a
    roundoff of 1e-16 in a vanishing axis into 1e-8.
    """
    th = pauli_coefficients(rho)
    a, b, t = th[1:, 0], th[0, 1:], th[1:, 1:]
    g = 1.0 - a @ a
    center = (b - t.T @ a) / g
    q = (t.T - np.outer(b, a)) @ (np.eye(3) + np.outer(a, a) / g) @ (t - np.outer(a, b)) / g
    return center, np.sort(np.linalg.eigvalsh((q + q.T) / 2))[::-1]


class OracleLog:
    """msc_oracle calls made while checking, memoized per input and basis."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.points = 0
        self._memo: dict = {}

    def value(self, key, state, basis) -> float:
        memo_key = (key, basis.vectors.tobytes())
        if memo_key not in self._memo:
            t0 = time.perf_counter()
            self._memo[memo_key] = qsteer.msc_oracle(state, ORACLE_RESOLUTION, basis=basis)
            self.seconds += time.perf_counter() - t0
            self.calls += 1
            self.points += ORACLE_RESOLUTION
        return self._memo[memo_key]


def _result_problem(res, d_bob: int) -> Verdict:
    """The first reason an MscResult is unusable, or an ok verdict."""
    if not res.converged:
        return Verdict("unconverged", why="converged=False")
    v = float(res.value)
    if not math.isfinite(v) or v < 0.0 or v > d_bob - 1 + WITNESS_TOL:
        return Verdict("range", why=f"value {v!r} outside [0, {d_bob - 1}]")
    wit = coherence_l1(res.steered_state, res.reference_basis)
    if abs(wit - v) > WITNESS_TOL:
        return Verdict("witness", why=f"witness coherence {wit:.3e} != value {v:.3e}")
    return Verdict()


def check_msc(case: Case, res, state, key, oracle: OracleLog) -> Verdict:
    """Checks shared by every MSC answer: soundness, then the closed form if
    there is one, else oracle dominance where the oracle supports the dims."""
    d_a, d_b = state.dims
    verdict = _result_problem(res, d_b)
    if case.exact is not None:
        verdict.error = abs(float(res.value) - case.exact)
        if verdict.ok and verdict.error > case.tol:
            verdict = Verdict("exact", verdict.error, f"|value - exact| = {verdict.error:.3e} > {case.tol:.0e}")
    elif verdict.ok and d_a <= 3:
        lower = oracle.value(key, state, res.reference_basis)
        if lower > float(res.value) + DOMINANCE_TOL:
            verdict = Verdict("dominance", why=f"oracle {lower:.12f} exceeds value {float(res.value):.12f}")
    return verdict


# ---------- input helpers ----------


def _lu(rng, state, d_a=2, d_b=2):
    u = np.kron(rand.random_unitary(rng, d_a), rand.random_unitary(rng, d_b))
    return qsteer.validate_density(u @ state.matrix @ u.conj().T, state.dims)


def _bloch_ket(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2)])


def _non_ball(rng):
    """A b = 0 state that is not a ball: 1/4[I + a.sigma x I + s T_ij sigma_i x sigma_j]
    with random |a| < 1, a random full-rank T and the largest s <= 1 that
    keeps it positive (s = 0 always does)."""
    a = rng.standard_normal(3)
    a *= rng.uniform(0.1, 0.9) / np.linalg.norm(a)
    base = _PAULI_KRON[0, 0] + np.einsum("i,ikl->kl", a, _PAULI_KRON[1:, 0])
    corr = np.einsum("ij,ijkl->kl", rng.standard_normal((3, 3)), _PAULI_KRON[1:, 1:])
    lo, hi = 0.0, 1.0  # bisection: base + lo * corr stays positive
    if np.linalg.eigvalsh(base + corr)[0] >= 0:
        lo = hi
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if np.linalg.eigvalsh(base + mid * corr)[0] >= 0:
            lo = mid
        else:
            hi = mid
    return qsteer.validate_density((base + lo * corr) / 4, (2, 2))


def _near_product(rng):
    psi = rand.random_pure_ket(rng, 2)
    n = np.real([psi.conj() @ s @ psi for s in _PAULIS[1:]])
    sigma = rand.random_density_matrix(rng, (2,)).matrix
    tau = rand.random_two_qubit(rng).matrix
    a_tau = pauli_coefficients(tau)[1:, 0]
    delta = 10.0 ** rng.uniform(-6.3, -5.7)  # target 1 - |a|
    eps = delta / (1.0 - n @ a_tau)
    rho = (1 - eps) * np.kron(np.outer(psi, psi.conj()), sigma) + eps * tau
    return qsteer.validate_density(rho, (2, 2))


def _near_degenerate(rng):
    base = _non_ball(rng).matrix
    beta = rng.standard_normal(3)
    beta *= 10.0 ** rng.uniform(-6, -4) / np.linalg.norm(beta)
    rho = 0.8 * base + 0.2 * np.eye(4) / 4 + np.kron(np.eye(2), sum(x * s for x, s in zip(beta, _PAULIS[1:]))) / 4
    return qsteer.validate_density(rho, (2, 2))


def _bell_diagonal(rng):
    corners = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)
    t = rng.dirichlet(np.ones(4)) @ corners
    rho = np.eye(4, dtype=complex) / 4
    for i, ti in enumerate(t, start=1):
        rho += ti * np.kron(_PAULIS[i], _PAULIS[i]) / 4
    return _lu(rng, qsteer.validate_density(rho, (2, 2))), float(np.sort(np.abs(t))[1])


def _pure_schmidt(rng, d):
    lam = np.sqrt(rng.dirichlet(np.ones(d)) * 0.7 + 0.3 / d)
    return qsteer.pure_schmidt(lam, rand.random_unitary(rng, d), rand.random_unitary(rng, d)).state


# ---------- generic-2q ----------


def _make_generic(kind: str, rng, *_) -> Case:
    if kind == "hs":
        return Case(kind, rand.random_two_qubit(rng))
    if kind == "hs-unital":
        return Case(kind, rand.random_two_qubit(rng), channel=rand.random_unital_channel(rng))
    if kind == "hs-damping":
        return Case(kind, rand.random_two_qubit(rng), channel=qsteer.amplitude_damping(float(rng.uniform(0.05, 0.95))))
    if kind == "hs-semiclassical":
        ch = qsteer.semi_classical(rand.random_basis(rng, 2), rand.random_povm(rng, 2, 2))
        return Case(kind, rand.random_two_qubit(rng), exact=0.0, tol=SEMI_CLASSICAL_TOL, channel=ch)
    if kind == "canonical":
        return Case(kind, rand.random_canonical(rng))
    if kind == "chord":
        b = float(rng.uniform(0.1, 0.95))
        alpha = math.acos(b)
        fam = qsteer.chord_state(np.array([1.0, 0.0]), _bloch_ket(alpha), _bloch_ket(-alpha))
        return Case(kind, _lu(rng, fam.state), exact=math.sqrt(1 - b * b), tol=CHORD_TOL)
    if kind == "pure":
        lam2 = float(rng.uniform(0.55, 0.95))
        psi = np.array([math.sqrt(lam2), 0, 0, math.sqrt(1 - lam2)], dtype=complex)
        st = qsteer.validate_density(np.outer(psi, psi), (2, 2))
        return Case(kind, _lu(rng, st), exact=1.0, tol=SCHMIDT_TOL)
    if kind == "near-product":
        return Case(kind, _near_product(rng))
    if kind == "near-degenerate":
        return Case(kind, _near_degenerate(rng))
    raise KeyError(kind)


def _run_generic(case: Case):
    state = case.state if case.channel is None else qsteer.apply_on_b(case.state, case.channel)
    return state, qsteer.msc_two_qubit(state), qsteer.qse(state)


def _check_generic(case: Case, answer, key, oracle: OracleLog) -> Verdict:
    state, res, ell = answer
    verdict = check_msc(case, res, state, key, oracle)
    if not verdict.ok:
        return verdict
    center, axes2 = qse_closed_form(state.matrix)
    dev = max(np.abs(center - ell.center).max(), np.abs(axes2 - ell.semiaxes**2).max())
    if not dev <= QSE_TOL:
        return Verdict("qse", verdict.error, f"qse deviates from the closed form by {dev:.3e}")
    if case.kind == "canonical":
        b = float(np.linalg.norm(ell.center))
        excess = max(float(res.value) - ell.semiaxes[0], ell.semiaxes[0] - math.sqrt(max(0.0, 1 - b * b)))
        if excess > THM2_TOL:
            return Verdict("bound", verdict.error, f"canonical bound exceeded by {excess:.3e}")
    return verdict


# ---------- degenerate-2q ----------


def _make_degenerate(kind: str, rng, *_) -> Case:
    if kind == "werner":
        p = float(np.linspace(0.05, 1.0, 20)[rng.integers(20)])
        return Case(kind, qsteer.werner(p).state, exact=p, tol=CLOSED_FORM_TOL)
    if kind == "bell-diagonal":
        st, middle = _bell_diagonal(rng)
        return Case(kind, st, exact=middle, tol=DEGENERATE_TOL)
    if kind == "non-ball":
        return Case(kind, _non_ball(rng))
    if kind == "classical-b0":
        alice = [rand.random_density_matrix(rng, (2,)) for _ in range(2)]
        st = qsteer.classical_state([0.5, 0.5], alice, rand.random_basis(rng, 2)).state
        return Case(kind, st, exact=0.0, tol=CLASSICAL_ZERO_TOL)
    if kind == "rho_c(0.5)":
        return Case(kind, qsteer.rho_c(0.5).state, exact=0.0, tol=CLASSICAL_ZERO_TOL)
    raise KeyError(kind)


def _run_degenerate(case: Case):
    return qsteer.msc_two_qubit(case.state)


def _check_single(case: Case, answer, key, oracle: OracleLog) -> Verdict:
    return check_msc(case, answer, case.state, key, oracle)


# ---------- qudit ----------

_QUDIT_DIMS = {"2x3": (2, 3), "3x2": (3, 2), "3x3": (3, 3), "3x4": (3, 4), "4x4": (4, 4)}


def _make_qudit(kind: str, rng, *_) -> Case:
    if kind in _QUDIT_DIMS:
        return Case(kind, rand.random_density_matrix(rng, _QUDIT_DIMS[kind]))
    if kind.startswith("pure-"):
        d = int(kind[-1])
        return Case(kind, _pure_schmidt(rng, d), exact=float(d - 1), tol=SCHMIDT_TOL)
    raise KeyError(kind)


def _run_qudit(case: Case):
    return qsteer.msc_general(case.state)


# ---------- damping-sweep ----------


def _make_sweep(kind: str, rng, workdir: str, index) -> Case:
    path = os.path.join(workdir, f"state-{index}.json")
    argv = ["sweep", path, "--grid", str(GRID)]
    if kind.startswith("classical-"):
        t = float(kind.split("-")[1])
        state = qsteer.rho_c(t).state
        exact = [states.damped_classical_msc(t, float(g)) for g in np.linspace(0.0, 1.0, GRID)]
        case = Case(kind, state, curve=exact)
    elif kind.startswith("fig2-"):
        p, th = FIG2_PAIRS[int(kind[-1])]
        case = Case(kind, qsteer.rho_p(p, th * math.pi).state)
    elif kind == "unital":
        es = rng.dirichlet(np.ones(4))
        argv += ["--channel", "unital", "--e", ",".join(repr(float(e)) for e in es)]
        case = Case(kind, rand.random_two_qubit(rng))
    else:
        raise KeyError(kind)
    qsteer.save_state(case.state, path)
    case.argv = argv + ["--out", os.path.join(workdir, f"sweep-{index}.csv")]
    return case


def _run_sweep(case: Case):
    return qsteer.cli.main(case.argv)


def _check_sweep(case: Case, code, key, oracle: OracleLog) -> Verdict:
    if code != 0:
        return Verdict("exit", why=f"exit code {code}")
    path = case.argv[-1]
    if not os.path.exists(path):
        return Verdict("csv", why="no CSV written")
    with open(path) as fh:
        text = fh.read()
    os.remove(path)  # so that a later run of this input cannot pass on this output
    lines = text.splitlines()
    if not lines or lines[0] != "gamma,msc" or len(lines) != GRID + 1:
        return Verdict("csv", why=f"malformed CSV ({len(lines)} lines)")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    gammas, vals = rows[:, 0], rows[:, 1]
    if not np.array_equal(gammas, np.linspace(0.0, 1.0, GRID)) or not np.all(np.isfinite(vals)):
        return Verdict("csv", why="gamma grid or values malformed")
    if case.kind.startswith("classical-"):
        error = float(np.abs(vals - np.array(case.curve)).max())
        ends = max(vals[0], vals[-1])
        if error > DAMPING_TOL or ends > DAMPING_ENDPOINT_TOL:
            return Verdict("exact", error, f"pointwise {error:.3e}, endpoints {ends:.3e}")
        return Verdict(error=error)
    if case.kind.startswith("fig2-"):
        gain = float(vals.max() - vals[0])
        return Verdict() if gain >= SWEEP_MIN_GAIN else Verdict("gain", why=f"gain {gain:.3e}")
    excess = float((vals - vals[0]).max())
    return Verdict() if excess <= THM1_TOL else Verdict("monotone", why=f"unital increase {excess:.3e}")


# ---------- registry ----------


@dataclass
class Workload:
    name: str
    cycle: tuple[str, ...]  # kinds in schedule order; inputs repeat the cycle
    pool: int  # distinct inputs; ops beyond it reuse them in order
    warmup: tuple[str, ...]  # kinds run once during set-up
    run: object
    check: object
    make: object  # (kind, rng, workdir, index) -> Case
    # op_ms_tail's percentile: the highest that leaves at least ten ops
    # beyond it in the slowest validation run. It is fixed, not derived from
    # each run's op count, so that runs with different op counts (a faster
    # commit, a slower machine) compare the same percentile.
    tail_percentile: float

    def build(self, seed: int, workdir: str):
        """(inputs, warm-up inputs) for a seed; the same seed, the same inputs."""
        rng = np.random.default_rng(seed)
        warm_rng = np.random.default_rng([seed, 1])
        cases = [self.make(self.cycle[i % len(self.cycle)], rng, workdir, i) for i in range(self.pool)]
        warm = [self.make(k, warm_rng, workdir, f"warm-{i}") for i, k in enumerate(self.warmup)]
        return cases, warm


# The cycles are weighted to the solves `qsteer verify` makes, as counted by
# verify_mix.py, with the other kinds the benchmark must cover kept as a
# minority:
#   generic-2q: verify's 10,943 non-degenerate, non-sweep two-qubit solves
#     are 91% random states through a random unital channel (thm1); here
#     32 ops in 40, and one op each for the eight other kinds.
#   degenerate-2q: verify's 35 b = 0 solves are Werner-family (ball)
#     states; here 6 ops in 10, and one op each for the four other kinds.
#   qudit: verify's 3 general-path solves are pure 3x3 states; here 6 ops
#     in 12, and one op each for the six other kinds.
#   damping-sweep: verify sweeps rho_c three times and the FIG2 states four
#     times; here 7 ops in 8, and one unital sweep.
_GENERIC_CYCLE = (
    ("hs-unital",) * 4 + ("hs",)
    + ("hs-unital",) * 4 + ("canonical",)
    + ("hs-unital",) * 4 + ("hs-damping",)
    + ("hs-unital",) * 4 + ("chord",)
    + ("hs-unital",) * 4 + ("hs-semiclassical",)
    + ("hs-unital",) * 4 + ("near-product",)
    + ("hs-unital",) * 4 + ("pure",)
    + ("hs-unital",) * 4 + ("near-degenerate",)
)
_DEGENERATE_CYCLE = (
    "werner", "bell-diagonal", "werner", "non-ball", "werner",
    "classical-b0", "werner", "rho_c(0.5)", "werner", "werner",
)
# No degenerate-Bob (isotropic) state: its outer search takes 3.5-8 s, a
# quarter of a run in one op, which made ops_per_s follow the machine's
# speed during that one op (a spread of 0.31 over ten seeds).
_QUDIT_CYCLE = (
    "pure-3x3", "2x3", "pure-3x3", "3x2", "pure-3x3", "3x3",
    "pure-3x3", "3x4", "pure-3x3", "4x4", "pure-3x3", "pure-4x4",
)
_SWEEP_CYCLE = (
    "classical-0.6", "fig2-0", "classical-0.75", "fig2-1", "classical-0.9", "fig2-2", "fig2-3", "unital",
)

WORKLOADS = {
    # p90: every percentile from p95 up falls among the near-product ops
    # (2.5% of the ops, 5 to 30 ms each) and the scheduler's stalls of a few
    # ms, and moved by up to 50% between runs of the same inputs (spreads of
    # 0.15 to 0.38 over eight to ten seeds); p90 is the highest that stayed
    # as steady as the median.
    "generic-2q": Workload(
        "generic-2q", _GENERIC_CYCLE, 4000, tuple(dict.fromkeys(_GENERIC_CYCLE)),
        _run_generic, _check_generic, _make_generic, 90.0,
    ),
    "degenerate-2q": Workload(
        "degenerate-2q", _DEGENERATE_CYCLE, 250, ("werner",), _run_degenerate, _check_single, _make_degenerate, 80.0
    ),
    # p75 rather than p80: the 4x4 kinds, the slowest, are the last 2 ops in
    # 12, and a percentile near their 83% boundary jumps between the groups.
    "qudit": Workload("qudit", _QUDIT_CYCLE, 252, ("2x3",), _run_qudit, _check_single, _make_qudit, 75.0),
    "damping-sweep": Workload(
        "damping-sweep", _SWEEP_CYCLE, 48, ("classical-0.75",), _run_sweep, _check_sweep, _make_sweep, 70.0
    ),
}
