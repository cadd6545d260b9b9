"""Small dependency-free optimizers, deterministic for fixed inputs.

A Nelder-Mead simplex on plain Python floats for the general path's outer
search over the basis freedom of a degenerate marginal, and an exact
trust-region step for the two-qubit path's inner problem: the largest
|g + A u| over unit u.
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
    Sci. Stat. Comput. 4 (1983)): one eigendecomposition of A^T A, then
    Newton steps on the secular equation in the shift delta above its top
    eigenvalue, hard case included (docs/formulas.md). converged is False
    only when 100 steps did not settle; u is then still a unit vector and
    value a lower bound.
    """
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    lam, vecs = np.linalg.eigh(a.T @ a)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    h = (vecs.T @ (a.T @ g)).tolist()
    top = float(lam[0])
    d = [0.0] + [max(top - float(x), 0.0) for x in lam[1:]]
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
    u = vecs @ np.array(coef)
    u /= np.linalg.norm(u)
    return float(np.linalg.norm(g + a @ u)), u, converged
