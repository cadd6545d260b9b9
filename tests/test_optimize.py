import numpy as np
import pytest

from qsteer.optimize import max_norm_on_sphere
from qsteer.qcore import fibonacci_sphere

U_GRID = fibonacci_sphere(20000)


def _grid_max(g, a):
    return float(np.linalg.norm(g + U_GRID @ a.T, axis=1).max())


def _check(g, a):
    value, u, converged = max_norm_on_sphere(g, a)
    assert converged
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    assert value == pytest.approx(np.linalg.norm(g + a @ u), abs=1e-14)
    assert value >= _grid_max(g, a) - 1e-12
    return value


def test_generic_inputs(rng):
    for _ in range(200):
        _check(rng.standard_normal(3), rng.standard_normal((3, 3)))


def test_hard_case_zero_offset(rng):
    # g = 0 (or roundoff): the value is the largest singular value of A.
    for scale in (0.0, 1e-17):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            value = _check(scale * rng.standard_normal(3), a)
            assert value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-12)


def test_hard_case_offset_orthogonal_to_top_direction(rng):
    # A^T g has no component along the top eigenvector of A^T A and the
    # other components fit inside the sphere: delta = 0.
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        lam, v = np.linalg.eigh(a.T @ a)
        h = v[:, :2] @ (rng.uniform(0.0, 0.7) * (lam[2] - lam[:2]) * rng.standard_normal(2) / np.sqrt(2))
        _check(np.linalg.solve(a.T, h), a)


def test_double_top_eigenvalue_and_zero_matrix(rng):
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag([0.8, 0.8, rng.uniform(0.0, 0.5)])
        assert _check(np.zeros(3), a) == pytest.approx(0.8, abs=1e-12)
        _check(rng.standard_normal(3), a)
    g = rng.standard_normal(3)
    assert _check(g, np.zeros((3, 3))) == pytest.approx(np.linalg.norm(g), abs=1e-15)


def test_projected_inputs(rng):
    # The MSC solves project onto the plane normal to Bob's axis: rank-2 A.
    for _ in range(100):
        n = rng.standard_normal(3)
        p = np.eye(3) - np.outer(n, n) / (n @ n)
        _check(p @ rng.standard_normal(3), p @ rng.standard_normal((3, 3)))


def test_mixed_stack_equals_one_row_solves(rng):
    # One stacked call over every case kind above (generic, g = 0, near-hard,
    # double top eigenvalue, A = 0, projected): each row equals its own solve.
    rows = [(rng.standard_normal(3), rng.standard_normal((3, 3))) for _ in range(20)]
    rows += [(s * rng.standard_normal(3), rng.standard_normal((3, 3))) for s in (0.0, 1e-17) for _ in range(5)]
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        lam, v = np.linalg.eigh(a.T @ a)
        h = v[:, :2] @ (rng.uniform(0.0, 0.7) * (lam[2] - lam[:2]) * rng.standard_normal(2) / np.sqrt(2))
        rows.append((np.linalg.solve(a.T, h), a))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rows += [(np.zeros(3), q @ np.diag([0.8, 0.8, 0.3])), (rng.standard_normal(3), np.zeros((3, 3)))]
    for _ in range(5):
        n = rng.standard_normal(3)
        p = np.eye(3) - np.outer(n, n) / (n @ n)
        rows.append((p @ rng.standard_normal(3), p @ rng.standard_normal((3, 3))))
    order = rng.permutation(len(rows))
    g = np.array([rows[k][0] for k in order])
    a = np.array([rows[k][1] for k in order])
    values, us, convs = max_norm_on_sphere(g, a)
    assert values.shape == (len(rows),) and us.shape == (len(rows), 3) and convs.all()
    for k in range(len(rows)):
        value, u, converged = max_norm_on_sphere(g[k], a[k])
        assert converged
        assert abs(values[k] - value) <= 1e-15
        assert np.abs(us[k] - u).max() <= 1e-15
