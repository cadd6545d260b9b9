"""Small dependency-free optimizers, deterministic for fixed inputs.

A Nelder-Mead simplex on plain Python floats for the general path's outer
search over the basis freedom of a degenerate marginal, and an exact
trust-region step for the two-qubit path's inner problem: the largest
|g + A u| over unit u, for one problem or a stack of them (one batched
eigendecomposition, then the scalar secular Newton on each row).
"""

from __future__ import annotations

import math

import numpy as np


def nelder_mead(f, x0, step=0.25, xatol=1e-10, fatol=1e-13, maxiter=400):
    """Minimize f from x0; returns (x_best, f_best, converged).

    f receives a list of floats. step sets the initial simplex size.
    Convergence when both the simplex diameter and the function spread fall
    below xatol / fatol; converged is False when maxiter is exhausted first.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    # Adaptive coefficients help a little for n > 2.
    nf = max(n, 2)
    alpha, gamma = 1.0, 1.0 + 2.0 / nf
    rho, sigma = 0.75 - 0.5 / nf, 1.0 - 1.0 / nf

    simplex = [(x0, f(x0))]
    for i in range(n):
        x = list(x0)
        x[i] += step
        simplex.append((x, f(x)))

    for _ in range(maxiter):
        simplex.sort(key=lambda t: t[1])
        best_x, best_f = simplex[0]
        worst_x, worst_f = simplex[-1]

        if worst_f - best_f <= fatol:
            diam = max(
                abs(p[i] - best_x[i]) for p, _ in simplex[1:] for i in range(n)
            )
            if diam <= xatol:
                return best_x, best_f, True

        centroid = [0.0] * n
        for p, _ in simplex[:-1]:
            for i in range(n):
                centroid[i] += p[i]
        delta = [0.0] * n
        for i in range(n):
            centroid[i] /= n
            delta[i] = alpha * (centroid[i] - worst_x[i])

        xr = [centroid[i] + delta[i] for i in range(n)]
        fr = f(xr)
        if fr < best_f:
            xe = [centroid[i] + gamma * delta[i] for i in range(n)]
            fe = f(xe)
            simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            continue
        if fr < simplex[-2][1]:
            simplex[-1] = (xr, fr)
            continue
        if fr < worst_f:
            xc = [centroid[i] + rho * delta[i] for i in range(n)]
            fc = f(xc)
            if fc <= fr:
                simplex[-1] = (xc, fc)
                continue
        else:
            xc = [centroid[i] - rho * delta[i] for i in range(n)]
            fc = f(xc)
            if fc < worst_f:
                simplex[-1] = (xc, fc)
                continue
        shrunk = []
        for p, _ in simplex[1:]:
            xs = [best_x[i] + sigma * (p[i] - best_x[i]) for i in range(n)]
            shrunk.append((xs, f(xs)))
        simplex = [simplex[0]] + shrunk

    simplex.sort(key=lambda t: t[1])
    return simplex[0][0], simplex[0][1], False


def max_norm_on_sphere(g, a):
    """Global maximum of |g + A u| over unit 3-vectors u; returns (value, u, converged).

    The trust-region subproblem solved exactly (Moré & Sorensen, SIAM J.
    Sci. Stat. Comput. 4 (1983)): an eigendecomposition of A^T A, then
    Newton steps on the secular equation in the shift delta above its top
    eigenvalue, hard case included (docs/formulas.md). Takes one problem,
    g (3,) and A (3, 3), or a stack, g (N, 3) and A (N, 3, 3): a stack gets
    one batched eigendecomposition and returns arrays, row k equal to the
    solve of row k alone. converged is False only when 100 steps did not
    settle; u is then still a unit vector and value a lower bound.
    """
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    single = g.ndim == 1
    g, a = g.reshape(-1, 3), a.reshape(-1, 3, 3)
    lam, vecs = np.linalg.eigh(a.transpose(0, 2, 1) @ a)
    h = (g[:, None, :] @ a @ vecs)[:, 0]
    # _secular works in descending eigenvalue order; eigh returns ascending.
    rows = [_secular(hk[::-1], lk[::-1]) for hk, lk in zip(h.tolist(), lam.tolist())]
    u = (vecs @ np.array([coef[::-1] for coef, _ in rows]).reshape(-1, 3, 1))[:, :, 0]
    u /= np.hypot.reduce(u, axis=1)[:, None]
    value = np.hypot.reduce(g + (a @ u[:, :, None])[:, :, 0], axis=1)
    converged = np.array([conv for _, conv in rows], dtype=bool)
    if single:
        return float(value[0]), u[0], bool(converged[0])
    return value, u, converged


def _secular(h, lam):
    """Coefficients of u in A^T A's eigenbasis (eigenvalues lam descending) and converged."""
    top = lam[0]
    d = [0.0] + [max(top - x, 0.0) for x in lam[1:]]
    live = [(hi * hi, di) for hi, di in zip(h, d) if hi != 0.0]

    converged = True
    delta = 0.0
    hard = all(di > 0.0 for _, di in live) and sum(wi / (di * di) for wi, di in live) <= 1.0
    if not hard:
        # sum(w / (delta + d)^2)^(-1/2) is concave and increasing, so Newton
        # steps from a lower bound climb monotonically to the root.
        delta = max(0.0, max(math.sqrt(wi) - di for wi, di in live))
        upper = math.sqrt(sum(wi for wi, _ in live))
        converged = False
        for _ in range(100):
            s0 = s1 = 0.0
            for wi, di in live:
                r = 1.0 / (delta + di)
                s0 += wi * r * r
                s1 += wi * r * r * r
            new = min(delta + (1.0 - s0**-0.5) * s0**1.5 / s1, upper)
            if new - delta <= 1e-15 * new:
                delta = max(delta, new)
                converged = True
                break
            delta = new

    coef = [hi / (delta + di) if delta + di > 0.0 else 0.0 for hi, di in zip(h, d)]
    if hard:
        coef[0] = math.sqrt(max(0.0, 1.0 - sum(x * x for x in coef)))
    return coef, converged
