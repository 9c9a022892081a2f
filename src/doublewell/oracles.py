"""Independent reference computations for the test suite and the CLI.

Everything here is deliberately decoupled from the production pipeline:
the 1D convex envelope is built by the closed-form common-tangent
construction, the exact 1D infimum follows from |Omega| * f**(0), and
small systems are cross-checked against a dense Cholesky solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import descent, energy
from .errors import ContractViolation, SolverError


@dataclass
class EnvelopeDescription:
    """Convex envelope of  min{0.5 a (xi+c)^2, 0.5 b (xi+d)^2}.

    `pieces` lists the envelope segments left to right as dicts with
    keys 'kind' ('parabola-a', 'parabola-b', 'affine'), 'lo', 'hi' and,
    for affine pieces, 'slope' and 'intercept'.  Evaluation itself goes
    through the biconjugate closed form, which is exact everywhere.
    """
    a: float
    c: float
    b: float
    d: float
    pieces: list

    def _candidate_slopes(self, xi):
        xi = np.asarray(xi, float)
        cands = [self.a * (xi + self.c), self.b * (xi + self.d),
                 np.zeros_like(xi)]
        if self.a != self.b:
            s_cross = 2.0 * self.a * self.b * (self.c - self.d) \
                / (self.b - self.a)
            cands.append(np.full_like(xi, s_cross))
        return cands

    def conjugate(self, s):
        """f*(s) = max of the two single-parabola conjugates."""
        s = np.asarray(s, float)
        g1 = s * s / (2.0 * self.a) - s * self.c
        g2 = s * s / (2.0 * self.b) - s * self.d
        return np.maximum(g1, g2)

    def __call__(self, xi):
        """f**(xi) = sup_s (s xi - f*(s)), exact via the candidate set.

        The objective is concave in s; its maximizer is either a
        stationary point of the active conjugate branch or a branch
        crossing, all of which are in the candidate set.
        """
        xi = np.asarray(xi, float)
        vals = [s * xi - self.conjugate(s) for s in self._candidate_slopes(xi)]
        out = np.maximum.reduce(vals) + 0.0     # never -0.0
        return float(out) if out.ndim == 0 else out

    def raw(self, xi):
        """The unrelaxed integrand min of the two parabolas."""
        xi = np.asarray(xi, float)
        return np.minimum(0.5 * self.a * (xi + self.c) ** 2,
                          0.5 * self.b * (xi + self.d) ** 2)


def _bridges(a, c, b, d):
    """Affine segments of the envelope: tangency intervals per slope."""
    segs = []
    for s in ({0.0} if a == b else {0.0, 2.0 * a * b * (c - d) / (b - a)}):
        x1, x2 = s / a - c, s / b - d     # tangency points on each parabola
        lo, hi = min(x1, x2), max(x1, x2)
        if hi - lo <= 1e-14 * (1.0 + abs(lo) + abs(hi)):
            continue
        # keep only genuine lower bridges (line strictly below the min
        # somewhere inside the interval)
        mid = 0.5 * (lo + hi)
        t_height = 0.5 * a * (c * c - x1 * x1)   # intercept of the tangent
        raw_mid = min(0.5 * a * (mid + c) ** 2, 0.5 * b * (mid + d) ** 2)
        if raw_mid > s * mid + t_height + 1e-14 * (1.0 + abs(raw_mid)):
            segs.append({"kind": "affine", "lo": lo, "hi": hi,
                         "slope": s, "intercept": t_height})
    segs.sort(key=lambda seg: seg["lo"])
    return segs


def envelope_1d(a, c, b, d):
    """Exact convex envelope of the 1D double-well integrand."""
    if a <= 0 or b <= 0:
        raise ContractViolation("parabola moduli must be positive")
    a, c, b, d = float(a), float(c), float(b), float(d)
    bridges = _bridges(a, c, b, d)
    pieces = []
    cursor = -np.inf
    probe_shift = 1.0

    def parabola_piece(lo, hi):
        mid = 0.5 * (lo + hi) if np.isfinite(lo) and np.isfinite(hi) else \
            (hi - probe_shift if np.isfinite(hi) else lo + probe_shift)
        lower_a = 0.5 * a * (mid + c) ** 2 <= 0.5 * b * (mid + d) ** 2
        return {"kind": "parabola-a" if lower_a else "parabola-b",
                "lo": lo, "hi": hi}

    for seg in bridges:
        if seg["lo"] > cursor:
            pieces.append(parabola_piece(cursor, seg["lo"]))
        pieces.append(seg)
        cursor = seg["hi"]
    pieces.append(parabola_piece(cursor, np.inf))
    return EnvelopeDescription(a=a, c=c, b=b, d=d, pieces=pieces)


def exact_alpha_1d(coeffs):
    """Exact infimum |Omega| * f**(0) for constant 1D coefficients, with
    |Omega| the summed element measure of the mesh."""
    mesh = coeffs.mesh
    if mesh.dim != 1:
        raise ContractViolation("exact_alpha_1d is one-dimensional only")
    a, b, C, D = coeffs.constant_values()
    env = envelope_1d(a, C[0], b, D[0])
    return float(np.sum(mesh.measures)) * env(0.0)


def dense_solve_oracle(problem):
    """Direct Cholesky solve of a small convex subproblem."""
    n = problem.f.shape[0]
    if n > 2000:
        raise ContractViolation(f"dense oracle limited to 2000 dof, got {n}")
    if n == 0:
        return problem.to_full(np.zeros(0))
    K = problem.K.toarray()
    try:
        cho = scipy.linalg.cho_factor(K)
    except scipy.linalg.LinAlgError as exc:
        raise SolverError("dense factorization failed: matrix not SPD",
                          residual=np.inf, iterations=0) from exc
    x = scipy.linalg.cho_solve(cho, -problem.f)
    return problem.to_full(x)


def laminate_oracle(mesh, coeffs, period_elements):
    """Exact sawtooth construction with its double-well energy.

    Returns (u, chi, J) where J is the quadrature of the nonconvex
    density at the constructed displacement; J = 0 exactly whenever both
    sawtooth slopes sit at the wells (mean-zero volume fraction).  Wells
    that coincide or are not rank-one compatible (`laminate_seed` builds
    no laminate) raise ContractViolation.
    """
    u, chi = descent.laminate_seed(mesh, coeffs, period_elements)
    if u is None:
        raise ContractViolation(
            "laminate oracle needs compatible wells: these coincide "
            "(C = D) or have det(C - D) > 0")
    eps = mesh.symmetrized_gradient(u)
    value = float(mesh.integrate(energy.h_density(coeffs, eps)))
    return u, chi, value
