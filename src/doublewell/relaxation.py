"""Relaxation-formula evaluators and a certified dual lower bound.

All formulas express the nonconvex infimum through the weak limits
(window averages) of the minimizing sequence, its dual fields and phase
fractions, plus the scalar oscillation gap d.  Two conventions for the
gap term are evaluated side by side: kappa = -theta/2 (coefficient-half)
and kappa = -theta (coefficient-1, i.e. substitute theta -> 2 theta);
the analytic 1D laminates satisfy the latter with theta in [0, 1].
The integrals the formulas combine are evaluated once per report by
`relaxation_pieces`; the formulas are pure functions of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import energy
from .mesh import window_expand


@dataclass
class ThetaEstimate:
    theta_half: float        # 2 d / den  (kappa = -theta/2 convention)
    theta_coeff1: float       # d / den
    zero_branch: bool
    half_in_range: bool
    coeff1_in_range: bool

    def verdict(self):
        if self.coeff1_in_range:
            return "coefficient-1"
        if self.half_in_range:
            return "coefficient-half"
        return "none"


def theta_estimate(d, den, tol):
    if den <= tol:
        return ThetaEstimate(0.0, 0.0, True, True, True)
    tp = 2.0 * d / den
    tc = d / den
    return ThetaEstimate(float(tp), float(tc), False,
                         bool(-1e-10 <= tp <= 1.0 + 1e-10),
                         bool(-1e-10 <= tc <= 1.0 + 1e-10))


def theta_tolerance(mesh, coeffs):
    """Denominator below which theta takes its zero branch:
    1e-12 int a |C - D|^2."""
    cd2 = mesh.frob_norm2(coeffs.C - coeffs.D)
    return 1e-12 * float((mesh.measures * coeffs.a * cd2).sum())


def gap_denominator(mesh, coeffs, bundle, masks):
    """int over Omega_0 of  chia chib a |C - D|^2  (window fractions)."""
    om0 = masks.omega0_elem
    chia = window_expand(bundle.chia_avg, bundle.windows)
    chib = window_expand(bundle.chib_avg, bundle.windows)
    cd2 = mesh.frob_norm2(coeffs.C - coeffs.D)
    return float((mesh.measures * chia * chib * coeffs.a * cd2 * om0).sum())


def eval_I(mesh, coeffs, bundle, masks):
    """The off-Omega_0 limit integral (guard zone excised and reported)."""
    w = bundle.windows
    value, excluded = energy.off_omega0_integral(
        coeffs, masks.omega0_elem, window_expand(bundle.eps_avg, w),
        window_expand(bundle.p_avg, w), window_expand(bundle.psi_avg, w))
    return {"value": value, "excluded_measure": excluded}


def _gap_coefficients(theta, convention):
    """Coefficients of the gap integral in the three representations and
    the main formula (which shares the first one).

    Coefficient-half: -theta/2, (2-theta)/2, (1-theta)/2.  Coefficient-1
    variant: substitute theta -> 2 theta, i.e. -theta, 1-theta, 1/2-theta.
    """
    if convention == "coefficient-half":
        tp = theta
    elif convention == "coefficient-1":
        tp = 2.0 * theta
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return -tp / 2.0, (2.0 - tp) / 2.0, (1.0 - tp) / 2.0


def _omega0_pieces(mesh, coeffs, bundle, masks):
    """The integrals over Omega_0 that the formulas combine."""
    om0 = masks.omega0_elem
    w = mesh.measures
    a = coeffs.a
    eps = window_expand(bundle.eps_avg, bundle.windows)
    p = window_expand(bundle.p_avg, bundle.windows)
    psi = window_expand(bundle.psi_avg, bundle.windows)
    C2 = mesh.frob_norm2(coeffs.C)
    D2 = mesh.frob_norm2(coeffs.D)
    Aps = ((a[:, None] * (coeffs.C + coeffs.D) / 2.0)
           + psi[:, None] * (a[:, None] * (coeffs.D - coeffs.C) / 2.0))
    B0 = a * (C2 + D2) / 2.0 + psi * a * (D2 - C2) / 2.0
    return {
        "tilt_eps": float((w * mesh.frob_dot(Aps, eps) * om0).sum()),
        "B0": float((w * B0 * om0).sum()),
        "a_eps2": float((w * a * mesh.frob_norm2(eps) * om0).sum()),
        "p_eps": float((w * mesh.frob_dot(p, eps) * om0).sum()),
        "p2_over_a": float((w * mesh.frob_norm2(p) / a * om0).sum()),
    }


def _tilt_sq_over_a(mesh, coeffs, bundle, masks):
    om0 = masks.omega0_elem
    a = coeffs.a
    psi = window_expand(bundle.psi_avg, bundle.windows)
    Ap = (a[:, None] * (coeffs.C + coeffs.D)) / 2.0
    Am = (a[:, None] * (coeffs.D - coeffs.C)) / 2.0
    dens = (mesh.frob_norm2(Ap) + mesh.frob_norm2(Am)
            + 2.0 * psi * mesh.frob_dot(Ap, Am)) / a
    return float((mesh.measures * dens * om0).sum())


def relaxation_pieces(mesh, coeffs, bundle, masks):
    """Every integral the relaxation formulas combine, each evaluated once:
    the Omega_0 integrals, the off-Omega_0 term I and the gap denominator.
    """
    pieces = _omega0_pieces(mesh, coeffs, bundle, masks)
    pieces["tilt_sq_over_a"] = _tilt_sq_over_a(mesh, coeffs, bundle, masks)
    pieces["I"] = eval_I(mesh, coeffs, bundle, masks)
    pieces["den"] = gap_denominator(mesh, coeffs, bundle, masks)
    return pieces


def eval_limit_formula(pieces, theta, convention):
    """The main relaxation formula for the infimum.

    Every term carries a global factor 1/2: the limit inequalities the
    formula is squeezed between have 1/2 prefactors throughout, and only
    with the factor does the formula reproduce the analytic convex value
    (without it, it evaluates to twice the infimum).
    """
    kappa, _, _ = _gap_coefficients(theta, convention)
    return 0.5 * (pieces["tilt_eps"] + pieces["B0"] + pieces["I"]["value"]
                  + kappa * pieces["den"])


def eval_representations(pieces, theta, convention):
    """The three equivalent re-expressions of the relaxation formula
    (same global 1/2 as eval_limit_formula)."""
    off, den = pieces["I"]["value"], pieces["den"]
    k1, k2, k3 = _gap_coefficients(theta, convention)
    rep_a = 0.5 * (-pieces["a_eps2"] + pieces["B0"] + pieces["p_eps"]
                   + off + k1 * den)
    rep_b = 0.5 * (pieces["p2_over_a"] - pieces["p_eps"] + off + k2 * den)
    rep_c = 0.5 * (0.5 * (pieces["p2_over_a"] - pieces["a_eps2"]
                          + pieces["B0"])
                   + off + k3 * den)
    return {"rep_a": float(rep_a), "rep_b": float(rep_b),
            "rep_c": float(rep_c)}


def inequality_chain(pieces, alpha_scheme):
    """Residuals of the three-member inequality chain under two
    coefficient readings: full and half (the full constants fail the
    analytic 1D oracles; both readings are reported, neither asserted).
    """
    off = pieces["I"]["value"]
    left = -0.5 * pieces["a_eps2"] + pieces["p_eps"]
    mid_full = (alpha_scheme + 0.5 * pieces["p_eps"] - off
                - pieces["B0"])
    mid_half = (alpha_scheme + 0.5 * pieces["p_eps"] - 0.5 * off
                - 0.5 * pieces["B0"])
    right = 0.5 * (pieces["p2_over_a"] - pieces["tilt_sq_over_a"])
    return {
        "left": float(left),
        "middle_full": float(mid_full),
        "middle_half": float(mid_half),
        "right": float(right),
        "full_violation": float(max(mid_full - left,
                                    right - mid_full, 0.0)),
        "half_violation": float(max(mid_half - left,
                                    right - mid_half, 0.0)),
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


def dual_lower_bound(mesh, coeffs):
    """Certified lower bound from constant dual fields.

    For any constant q,  alpha >= -int max over the two phases of the
    conjugate densities; the bound is concave in q, maximized over a grid
    of 9 points per component on [-2 s, 2 s] (s the largest of |aC|, |bD|
    and 1), then polished from the best grid point by Nelder-Mead.  The
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
    res = optimize.minimize(lambda q: -bounds(q[None, :])[0], q_best,
                            method="Nelder-Mead",
                            options={"xatol": 1e-12, "fatol": 1e-14,
                                     "maxiter": 4000})
    if -res.fun > val_best:
        q_best, val_best = res.x, -res.fun
    return {"bound": float(val_best), "q": [float(v) for v in q_best]}


def relaxation_section(mesh, coeffs, bundle, masks, d, alpha_scheme):
    """Assemble the full relaxation block of the run report."""
    pieces = relaxation_pieces(mesh, coeffs, bundle, masks)
    den = pieces["den"]
    est = theta_estimate(d, den, theta_tolerance(mesh, coeffs))
    out = {
        "d": float(d),
        "denominator": float(den),
        "theta_half": est.theta_half,
        "theta_coeff1": est.theta_coeff1,
        "theta_zero_branch": est.zero_branch,
        "theta_half_in_range": est.half_in_range,
        "theta_coeff1_in_range": est.coeff1_in_range,
        "convention_verdict": est.verdict(),
        "alpha_scheme": float(alpha_scheme),
        "I_term": pieces["I"],
        "inequality_chain": inequality_chain(pieces, alpha_scheme),
        "lower_bound": dual_lower_bound(mesh, coeffs),
    }
    for conv, theta in (("coefficient-half", est.theta_half),
                        ("coefficient-1", est.theta_coeff1)):
        main = eval_limit_formula(pieces, theta, conv)
        key = conv.replace("-", "_")
        out[f"alpha_formula_{key}"] = float(main)
        out[f"alpha_residual_{key}"] = float(abs(main - alpha_scheme))
        out[f"representations_{key}"] = eval_representations(pieces, theta,
                                                             conv)
    bnd = out["lower_bound"]["bound"]
    out["lower_bound_gap"] = float(alpha_scheme - bnd)
    out["stuck_suspected"] = bool(
        alpha_scheme - bnd > 1e-3 * (1.0 + abs(alpha_scheme)))
    return out
