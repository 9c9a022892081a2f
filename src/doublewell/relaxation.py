"""Relaxation-formula evaluators and a certified dual lower bound.

All formulas express the nonconvex infimum through the weak limits
(window averages) of the minimizing sequence, its dual fields and phase
fractions, plus the scalar oscillation gap d.  The gap term is
-theta den with the volume fraction theta = d / den, in [0, 1] on the
analytic 1D laminates; `gap_theta` is the one path from a state to d,
den and theta, at every level.  The integrals are evaluated once per
report by `relaxation_pieces`, the Omega_0-split ones by
`energy.omega0_pieces`; the formulas are pure functions of them, and
Omega_0 and its guard zone are the coefficients'.
"""

from __future__ import annotations

import numpy as np

from . import energy, limits
from .mesh import window_expand


def gap_denominator(mesh, coeffs, bundle):
    """int over Omega_0 of  chia chib a |C - D|^2  (window fractions)."""
    om0 = coeffs.omega0
    chia = window_expand(bundle.chia_avg, bundle.windows)
    chib = window_expand(bundle.chib_avg, bundle.windows)
    return float((mesh.measures * chia * chib * coeffs.a * coeffs.cd2
                  * om0).sum())


def gap_theta(mesh, coeffs, bundle, den=None):
    """The gap d (`limits.gap_d`), its denominator den (`gap_denominator`,
    unless the caller has it), theta = d / den, 0 on the zero branch
    den <= 1e-12 int a |C - D|^2, and whether theta lies in [0, 1]: the
    leading leaves of the relaxation block, in report order, and the
    per-level theta of the refinement plot."""
    if den is None:
        den = gap_denominator(mesh, coeffs, bundle)
    d = limits.gap_d(mesh, coeffs, bundle)
    zero = den <= 1e-12 * float((mesh.measures * coeffs.a
                                 * coeffs.cd2).sum())
    theta = 0.0 if zero else d / den
    return {"d": float(d), "denominator": float(den),
            "theta_coeff1": float(theta), "theta_zero_branch": bool(zero),
            "theta_coeff1_in_range": bool(-1e-10 <= theta <= 1.0 + 1e-10)}


def relaxation_pieces(mesh, coeffs, bundle):
    """Every integral the relaxation formulas combine, each evaluated once
    on the window means expanded to elements: the Omega_0 integrals and
    the off-Omega_0 term I (`energy.omega0_pieces`), the tilt terms of the
    main formula and of the inequality chain, and the gap denominator.
    """
    w, a, om0 = mesh.measures, coeffs.a, coeffs.omega0
    eps, p, psi = (window_expand(avg, bundle.windows) for avg in
                   (bundle.eps_avg, bundle.p_avg, bundle.psi_avg))
    pieces = energy.omega0_pieces(coeffs, eps, p, psi)
    Ap = (a[:, None] * (coeffs.C + coeffs.D)) / 2.0
    Am = (a[:, None] * (coeffs.D - coeffs.C)) / 2.0
    pieces["tilt_eps"] = float(
        (w * mesh.frob_dot(Ap + psi[:, None] * Am, eps) * om0).sum())
    dens = (mesh.frob_norm2(Ap) + mesh.frob_norm2(Am)
            + 2.0 * psi * mesh.frob_dot(Ap, Am)) / a
    pieces["tilt_sq_over_a"] = float((w * dens * om0).sum())
    pieces["den"] = gap_denominator(mesh, coeffs, bundle)
    return pieces


def eval_limit_formula(pieces, theta):
    """The main relaxation formula for the infimum, with the gap term
    -theta * den (theta = d / den).

    Every term carries a global factor 1/2: the limit inequalities the
    formula is squeezed between have 1/2 prefactors throughout, and only
    with the factor does the formula reproduce the analytic convex value
    (without it, it evaluates to twice the infimum).
    """
    return 0.5 * (pieces["tilt_eps"] + pieces["B0"] + pieces["I"]["value"]
                  - theta * pieces["den"])


def eval_representations(pieces, theta):
    """The three equivalent re-expressions of the relaxation formula
    (same global 1/2 as eval_limit_formula), with gap coefficients
    -theta, 1 - theta and 1/2 - theta."""
    off, den = pieces["I"]["value"], pieces["den"]
    rep_a = 0.5 * (-pieces["a_eps2"] + pieces["B0"] + pieces["p_eps"]
                   + off - theta * den)
    rep_b = 0.5 * (pieces["p2_over_a"] - pieces["p_eps"] + off
                   + (1.0 - theta) * den)
    rep_c = 0.5 * (0.5 * (pieces["p2_over_a"] - pieces["a_eps2"]
                          + pieces["B0"])
                   + off + (0.5 - theta) * den)
    return {"rep_a": float(rep_a), "rep_b": float(rep_b),
            "rep_c": float(rep_c)}


def inequality_chain(pieces, alpha_scheme):
    """The three members of the inequality chain left >= middle >= right,
    with the half constants of the limit inequalities (the full constants
    fail the analytic 1D oracles), and its violation.  The chain holds to
    rounding for constant coefficients; where they vary inside a window,
    the violation can reach the relaxation formula's residual.
    """
    left = -0.5 * pieces["a_eps2"] + pieces["p_eps"]
    mid = (alpha_scheme + 0.5 * pieces["p_eps"] - 0.5 * pieces["I"]["value"]
           - 0.5 * pieces["B0"])
    right = 0.5 * (pieces["p2_over_a"] - pieces["tilt_sq_over_a"])
    return {
        "left": float(left),
        "middle_half": float(mid),
        "right": float(right),
        "half_violation": float(max(mid - left, right - mid, 0.0)),
    }


# Entries per (candidates x tuples) block of the lower-bound search: 1 MiB
# per float64 temporary, whatever the number of coefficient tuples.
_BOUND_BLOCK_ENTRIES = 1 << 17


def _coefficient_tuples(mesh, coeffs):
    """Distinct per-element (a, b, C, D) rows and the measure carrying each.

    Returns (a, b, C, D, W) with one entry per distinct row, in
    lexicographic order, and W_k the summed element measure of row k.
    """
    n = mesh.n_comp
    rows = np.column_stack([coeffs.a, coeffs.b, coeffs.C, coeffs.D])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    W = np.bincount(np.cumsum(first) - 1, weights=mesh.measures[order])
    rows = rows[first]
    return rows[:, 0], rows[:, 1], rows[:, 2:2 + n], rows[:, 2 + n:], W


def _nelder_mead(f, x0):
    """Minimize f from x0 by SciPy's non-adaptive Nelder-Mead, operation
    for operation, so that (x, f(x)) is bit for bit that of
    `scipy.optimize.minimize(f, x0, method="Nelder-Mead")` with xatol
    1e-12, fatol 1e-14 and maxiter 4000.  Reflection 1, expansion 2,
    contraction and shrink 1/2; the first simplex scales one coordinate
    of x0 by 1.05, or sets it to 0.00025 where it is 0.  Vertices are
    passed to f as copies, as SciPy passes them.
    """
    def ordered(sim, fsim):
        order = np.argsort(fsim)
        return sim[order], fsim[order]

    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x.copy()) for x in sim])
    sim, fsim = ordered(*ordered(sim, fsim))   # twice, as SciPy: ties may move
    for _ in range(1, 4000):
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-12
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-14):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                keep = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j].copy())
        sim, fsim = ordered(sim, fsim)
    return sim[0], np.min(fsim)


def dual_lower_bound(mesh, coeffs):
    """Certified lower bound from constant dual fields.

    For any constant q,  alpha >= -int max over the two phases of the
    conjugate densities; the bound is concave in q, maximized over a grid
    of 9 points per component on [-2 s, 2 s] (s the largest of |aC|, |bD|
    and 1), then polished from the best grid point by `_nelder_mead`,
    SciPy's Nelder-Mead step for step, kept only if it improves.  The
    integrand depends on x only through the coefficients, so the mesh is
    first reduced to its distinct (a, b, C, D) tuples weighted by their
    measure: the cost scales with the number of distinct tuples, not of
    elements.
    """
    fw = mesh.frob_w
    a, b, C, D, W = _coefficient_tuples(mesh, coeffs)
    Cw, Dw = (C * fw).T, (D * fw).T

    def bounds(Q):
        """Bound at each row of Q, evaluated block by block."""
        step = max(1, _BOUND_BLOCK_ENTRIES // len(W))
        out = np.empty(len(Q))
        for s in range(0, len(Q), step):
            q = Q[s:s + step]
            q2 = ((q * q) @ fw)[:, None]
            dens = np.maximum(q2 / (2.0 * a) - q @ Cw,
                              q2 / (2.0 * b) - q @ Dw)
            out[s:s + step] = 0.0 - dens @ W   # +0.0, not -0.0, at q = 0
        return out

    scale = max(
        float(np.max(a * np.sqrt(mesh.frob_norm2(C)))),
        float(np.max(b * np.sqrt(mesh.frob_norm2(D)))), 1.0)
    axes = [np.linspace(-2.0 * scale, 2.0 * scale, 9)] * mesh.n_comp
    grids = np.meshgrid(*axes, indexing="ij")
    cands = np.stack([g.ravel() for g in grids], axis=1)
    vals = bounds(cands)
    best_idx = int(np.argmax(vals))
    q_best, val_best = cands[best_idx], vals[best_idx]
    q_nm, f_nm = _nelder_mead(lambda q: -bounds(q[None, :])[0], q_best)
    if -f_nm > val_best:
        q_best, val_best = q_nm, -f_nm
    return {"bound": float(val_best), "q": [float(v) for v in q_best]}


def relaxation_section(mesh, coeffs, bundle, alpha_scheme):
    """Assemble the full relaxation block of the run report."""
    pieces = relaxation_pieces(mesh, coeffs, bundle)
    theta = gap_theta(mesh, coeffs, bundle, pieces["den"])
    main = eval_limit_formula(pieces, theta["theta_coeff1"])
    bnd = dual_lower_bound(mesh, coeffs)
    return {
        **theta,
        "I_term": pieces["I"]["value"],
        "inequality_chain": inequality_chain(pieces, alpha_scheme),
        "lower_bound": bnd,
        "alpha_formula_coefficient_1": float(main),
        "alpha_residual_coefficient_1": float(abs(main - alpha_scheme)),
        "representations_coefficient_1": eval_representations(
            pieces, theta["theta_coeff1"]),
        "stuck_suspected": bool(
            alpha_scheme - bnd["bound"] > 1e-3 * (1.0 + abs(alpha_scheme))),
    }
