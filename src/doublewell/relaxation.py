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


def gap_theta(mesh, coeffs, bundle):
    """The gap d (`limits.gap_d`), its denominator den (`gap_denominator`),
    theta = d / den, 0 on the zero branch den <= 1e-12 int a |C - D|^2,
    and whether theta lies in [0, 1]: the leading leaves of the relaxation
    block, in report order, and the per-level theta of the refinement
    plot."""
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
    the off-Omega_0 term I (`energy.omega0_pieces`) and the tilt term of
    the main formula.
    """
    w, a, om0 = mesh.measures, coeffs.a, coeffs.omega0
    eps, p, psi = (window_expand(avg, bundle.windows) for avg in
                   (bundle.eps_avg, bundle.p_avg, bundle.psi_avg))
    pieces = energy.omega0_pieces(coeffs, eps, p, psi)
    Ap = (a[:, None] * (coeffs.C + coeffs.D)) / 2.0
    Am = (a[:, None] * (coeffs.D - coeffs.C)) / 2.0
    pieces["tilt_eps"] = float(
        (w * mesh.frob_dot(Ap + psi[:, None] * Am, eps) * om0).sum())
    return pieces


def eval_limit_formula(pieces, theta):
    """The main relaxation formula for the infimum, with the gap term
    -theta * den of the `gap_theta` record theta.

    Every term carries a global factor 1/2: the limit inequalities the
    formula is squeezed between have 1/2 prefactors throughout, and only
    with the factor does the formula reproduce the analytic convex value
    (without it, it evaluates to twice the infimum).
    """
    return 0.5 * (pieces["tilt_eps"] + pieces["B0"] + pieces["I"]["value"]
                  - theta["theta_coeff1"] * theta["denominator"])


def eval_representations(pieces, theta):
    """The two equivalent re-expressions of the relaxation formula (same
    global 1/2 as eval_limit_formula), with gap coefficients -theta and
    1 - theta; the paper's third, with 1/2 - theta, is their mean."""
    off, den = pieces["I"]["value"], theta["denominator"]
    t = theta["theta_coeff1"]
    rep_a = 0.5 * (-pieces["a_eps2"] + pieces["B0"] + pieces["p_eps"]
                   + off - t * den)
    rep_b = 0.5 * (pieces["p2_over_a"] - pieces["p_eps"] + off
                   + (1.0 - t) * den)
    return {"rep_a": float(rep_a), "rep_b": float(rep_b)}


def inequality_chain(pieces, alpha_scheme):
    """The three members of the inequality chain left >= middle >= right,
    with the half constants of the limit inequalities (the full constants
    fail the analytic 1D oracles), and its violation.  The chain holds to
    rounding for constant coefficients; where they vary inside a window,
    the violation can reach the relaxation formula's residual.  The
    squared tilt (|A+|^2 + |A-|^2 + 2 psi A+:A-)/a, with A+ = a (C + D)/2
    and A- = a (D - C)/2, expands to the offset B0, so `right` reads B0.
    """
    left = -0.5 * pieces["a_eps2"] + pieces["p_eps"]
    mid = (alpha_scheme + 0.5 * pieces["p_eps"] - 0.5 * pieces["I"]["value"]
           - 0.5 * pieces["B0"])
    right = 0.5 * (pieces["p2_over_a"] - pieces["B0"])
    return {
        "left": float(left),
        "middle_half": float(mid),
        "right": float(right),
        "half_violation": float(max(mid - left, right - mid, 0.0)),
    }


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
    """Certified lower bound from constant dual fields, solved.

    For any constant q,  alpha >= g(q) = -sum_k W_k max(h_a,k, h_b,k)(q)
    over the distinct coefficient tuples k of measure W_k (so the cost
    scales with the tuples, not the elements), h_a,k(q) = |q|^2/2a_k -
    q:C_k, h_b,k likewise.  By Sion's minimax theorem the maximum B of
    the concave g is the minimum over phase mixtures lam in [0, 1]^K of
    Phi(lam) = |m|^2/2s, m = sum W (lam C + (1 - lam) D), s = sum W
    (lam/a + (1 - lam)/b), so any pair brackets g(q) <= B <= Phi(lam).
    Newton in q runs on g smoothed by the log barrier -mu sum W log(lam
    (1 - lam)), mu falling tenfold per stage; lam solves a quadratic in
    phi = h_a - h_b, on the side away from phi's sign so nothing cancels.
    Once few tuples are tied (nu = min(lam, 1 - lam) > sqrt(mu)), Newton
    in (q, lam_tied) on phi_tied(q) = 0 and m = s q, every other lam 0 or
    1 by phi's sign, makes the certificate exact to round-off; an iterate
    whose heights or residual are not finite (moduli some 1e300 apart)
    ends that solve, and its candidate is dropped.  It solves
    in orthonormal components on tuples divided by powers of two: the
    wells and measure by those at or below their largest, the moduli by
    the one midway between their extremes (so no reciprocal overflows).
    A power-of-two rescaling then rescales q and the bound exactly.

    Returns the bound, the best g(q) seen (never below g(0) = +0.0), its
    q, and certificate_gap = the least Phi seen - bound, as computed (a
    few ulps below 0 at worst); the solve stops once that gap is at most
    1e-14 (1 + |g|) in its unit, or after 17 stages.
    """
    a, b, C, D, W = _coefficient_tuples(mesh, coeffs)
    r = np.sqrt(mesh.frob_w)
    n, eye = len(r), np.eye(len(r))
    ew, em = (np.frexp(v)[1] - 1 for v in (
        max(np.abs(C).max(), np.abs(D).max()), W.sum()))
    ea = (np.frexp(min(a.min(), b.min()))[1]
          + np.frexp(max(a.max(), b.max()))[1]) // 2
    a, b, W = np.ldexp(a, -ea), np.ldexp(b, -ea), np.ldexp(W, -em)
    C, D = np.ldexp(C * r, -ew), np.ldexp(D * r, -ew)
    u, e = 1.0 / a - 1.0 / b, C - D         # grad phi_k = u_k q - e_k

    def heights(q):
        return (q @ q) / (2.0 * a) - C @ q, (q @ q) / (2.0 * b) - D @ q

    def mix(lam):
        return ((W * lam) @ C + (W * (1.0 - lam)) @ D,
                W @ (lam / a + (1.0 - lam) / b))

    def central(q, mu):
        """phi, the barrier's nu and lam, and the smoothed g at q."""
        ha, hb = heights(q)
        phi = ha - hb
        nu = 2.0 * mu / (2.0 * mu + np.abs(phi) + np.hypot(phi, 2.0 * mu))
        lam = np.where(phi > 0, 1.0 - nu, nu)
        return phi, nu, lam, -(W @ (lam * ha + (1.0 - lam) * hb + mu * (
            np.log(nu) + np.log1p(-nu))))

    q = best_q = np.zeros(n)
    best, least, mu = 0.0, np.inf, 1.0
    for _ in range(17):
        phi, nu, lam, smooth = central(q, mu)
        for _ in range(60):
            m, s = mix(lam)
            dphi = q * u[:, None] - e
            p = nu * (1.0 - nu)                 # curv = W d lam / d phi
            curv = W * p * p / (mu * (1.0 - 2.0 * p))
            dq = np.linalg.solve(s * eye + (dphi.T * curv) @ dphi, m - s * q)
            # a gain below the smoothed g's round-off: full step, converged
            done = (m - s * q) @ dq <= 1e-14 * (mu + abs(smooth))
            t = 1.0
            while ((trial := central(q + t * dq, mu))[-1] < smooth
                   and not done and t > 1e-12):
                t *= 0.5
            q, (phi, nu, lam, smooth) = q + t * dq, trial
            if done or t <= 1e-12:
                break
        tied = np.flatnonzero(nu > np.sqrt(mu))
        pairs = [(q, lam)]
        if len(tied) <= 64:             # an (n + 64)^2 system is cheap
            qt, lt = q, (phi > 0) * 1.0
            lt[tied] = lam[tied]
            for k in range(9):          # 8 steps, each from a finite iterate
                with np.errstate(over="ignore", invalid="ignore"):
                    m, s = mix(lt)
                    ha, hb = heights(qt)
                    dphi = qt * u[tied, None] - e[tied]
                    res = np.concatenate([s * qt - m, hb[tied] - ha[tied]])
                finite = all(np.isfinite(v).all() for v in (ha, hb, dphi, res))
                if k == 8 or not finite:
                    break
                step = np.linalg.lstsq(
                    np.block([[-s * eye, -(dphi.T * W[tied])],
                              [dphi, np.zeros((len(tied),) * 2)]]),
                    res, rcond=None)[0]
                qt, lt[tied] = qt + step[:n], lt[tied] + step[n:]
            if finite:
                pairs.append((qt, np.clip(lt, 0.0, 1.0)))
        for qc, lc in pairs:
            g = 0.0 - W @ np.maximum(*heights(qc))
            if g > best:
                best, best_q = g, qc
            m, s = mix(lc)
            least = min(least, (m @ m) / (2.0 * s))
        if least - best <= 1e-14 * (1.0 + abs(best)):
            break
        mu *= 0.1
    eg = 2 * ew + ea + em                   # the exponent of g's unit
    bound = np.ldexp(best, eg)
    return {"bound": float(bound),
            "q": [float(v) for v in np.ldexp(best_q, ew + ea) / r],
            "certificate_gap": float(np.ldexp(least, eg) - bound)}


def relaxation_section(mesh, coeffs, bundle, theta, alpha_scheme):
    """Assemble the full relaxation block of the run report from the
    window bundle and its `gap_theta` record."""
    pieces = relaxation_pieces(mesh, coeffs, bundle)
    main = eval_limit_formula(pieces, theta)
    bnd = dual_lower_bound(mesh, coeffs)
    return {
        **theta,
        "I_term": pieces["I"]["value"],
        "inequality_chain": inequality_chain(pieces, alpha_scheme),
        "lower_bound": bnd,
        "alpha_formula_coefficient_1": float(main),
        "alpha_residual_coefficient_1": float(abs(main - alpha_scheme)),
        "representations_coefficient_1": eval_representations(pieces, theta),
        "stuck_suspected": bool(
            alpha_scheme - bnd["bound"] > 1e-3 * (1.0 + abs(alpha_scheme))),
    }
