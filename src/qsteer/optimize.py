"""The exact trust-region step, deterministic for fixed inputs.

The two-qubit path's inner problem and the ellipsoid's largest radius: the
largest |g + A u| over unit u, for one problem or a stack of them (one
batched eigendecomposition, then the scalar secular Newton on each row).
"""

from __future__ import annotations

import math

import numpy as np


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
