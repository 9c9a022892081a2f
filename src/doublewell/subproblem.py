"""The convex problem of one phase field: assembly, solution and checks.

With the phase indicators fixed, the energy is the convex quadratic

    J(v) = int [ 0.5 m |eps(v)|^2 + E . eps(v) + 0.5 B ] dx

with m = chi_a a + chi_b b, E = chi_a aC + chi_b bD and B = chi_a a|C|^2
+ chi_b b|D|^2, evaluated once by `assemble` and read by every check.
Discretely J is 0.5 v.Kv + f.v + c over the interior degrees of freedom;
the minimizer solves K u = -f, K built on first use.  The dual variable
p = m eps(u) + E lies (discretely) in the kernel of the adjoint strain
operator, and -I(p) recovers the primal value: zero duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from . import energy
from .errors import ConfigurationError, SolverError


@dataclass
class QuadraticProblem:
    mesh: object
    coeffs: object
    chi: object               # the frozen phase field
    m: np.ndarray             # per-element modulus chi_a a + chi_b b
    E: np.ndarray             # per-element tilt chi_a aC + chi_b bD
    B: np.ndarray             # per-element offset chi_a a|C|^2 + chi_b b|D|^2
    w: np.ndarray             # per-element weights |T| m of K
    f: np.ndarray             # interior-dof load, mesh.strain_adjoint(E)
    c: float                  # constant term 0.5 * int B

    @cached_property
    def K(self):
        """The interior-dof operator, built on first use: no check needs it."""
        return self.mesh.stiffness(self.w)

    @property
    def n_dof(self):
        return self.f.shape[0]

    def to_full(self, x):
        u = self.mesh.zero_displacement()
        u[self.mesh.free_nodes] = x.reshape(-1, self.mesh.dim)
        return u

    def to_interior(self, u):
        return u[self.mesh.free_nodes].ravel()

    def energy(self, u):
        x = self.to_interior(self.mesh.check_displacement(u))
        return float(0.5 * x @ (self.K @ x) + self.f @ x + self.c)


@dataclass
class SolveReport:
    iterations: int
    residual: float
    alpha: float


def assemble(mesh, coeffs, chi):
    """The convex problem of the phase field chi; with psi = chi_b - chi_a,
    B = (a|C|^2 + b|D|^2) / 2 + psi (b|D|^2 - a|C|^2) / 2."""
    chi_a, chi_b, a, b = chi.chi_a, chi.chi_b, coeffs.a, coeffs.b
    m = chi_a * a + chi_b * b
    E = (chi_a * a)[:, None] * coeffs.C + (chi_b * b)[:, None] * coeffs.D
    ac2 = a * mesh.frob_norm2(coeffs.C)
    bd2 = b * mesh.frob_norm2(coeffs.D)
    B = (ac2 + bd2) / 2.0 + chi.psi * (bd2 - ac2) / 2.0
    return QuadraticProblem(mesh, coeffs, chi, m, E, B, mesh.measures * m,
                            mesh.strain_adjoint(E), 0.5 * mesh.integrate(B))


def direct_energy(problem, eps):
    """J(u) by direct elementwise quadrature (assembly-free oracle path),
    from the strain eps = eps(u)."""
    mesh = problem.mesh
    dens = (0.5 * problem.m * mesh.frob_norm2(eps)
            + mesh.frob_dot(problem.E, eps) + 0.5 * problem.B)
    return mesh.integrate(dens)


# Multigrid smoother: a Chebyshev polynomial of this degree in D^-1 A,
# before and after each coarse correction, damping the part
# [rho / CHEB_RATIO, rho] of its spectrum (rho >= the largest eigenvalue).
CHEB_DEGREE = 8
CHEB_RATIO = 30.0
# The largest coarsest level LU may take: 255 x 255 cells do not coarsen,
# and LU of their 129,032 interior dofs would take about 242 MB.
MAX_DIRECT_DOF = 2**15
# CG stops when the residual |K x + f| falls below this fraction of |f|.
SOLVER_TOL = 1e-10


def _galerkin_levels(problem):
    """Per level of the mesh hierarchy, finest first: the operator A, its
    inverse diagonal, the Gershgorin bound max_i sum_j |A_ij| / A_ii on the
    spectrum of D^-1 A, and `mesh.prolongation`; plus the LU factors of the
    coarsest A.  A coarse A is the stiffness of the weights summed over
    each coarse element's children, exactly P^T A P: a coarse basis
    function's strain is constant per coarse element.  Rebuilt for every
    K, as the moduli move with the phases wherever a != b."""
    levels, mesh, w, A = [], problem.mesh, problem.w, problem.K
    while mesh.prolongation is not None:
        dinv = 1.0 / A.diagonal()
        # row sums of |A| read off its data: every row holds its positive
        # diagonal, so no row is empty
        rho = float((np.add.reduceat(np.abs(A.data), A.indptr[:-1])
                     * dinv).max())
        levels.append((A, dinv, rho, *mesh.prolongation))
        w = np.bincount(mesh.parent, w)
        mesh = mesh.coarse
        A = mesh.stiffness(w)
    if mesh.n_free_dof > MAX_DIRECT_DOF:
        raise ConfigurationError(
            f"a mesh of {problem.mesh.shape.tolist()} cells coarsens only to "
            f"{mesh.shape.tolist()} cells: {mesh.n_free_dof} interior dofs, "
            f"above the {MAX_DIRECT_DOF} that LU may take on the coarsest "
            f"multigrid level; use cell counts with more factors of 2")
    return levels, spla.splu(A.tocsc())


def build_caches(mesh):
    """Build the caches of `mesh` that `assemble`, `solve` and
    `duality_report` read, on it and on every coarser multigrid level of
    `_galerkin_levels`: processes forked afterwards share them.  These are
    the basis strain norms with the adjoint plan they are read off, and
    on every level the stiffness plan, the prolongation and the parent
    map."""
    mesh.basis_strain_norms     # and the adjoint plan it is read off
    while True:
        mesh.stencil_plan
        if mesh.prolongation is None:
            return
        mesh.parent
        mesh = mesh.coarse


def _smooth(A, dinv, rho, r, x):
    """CHEB_DEGREE Chebyshev steps for A x = r from x (None for zero),
    by the three-term recurrence (Saad, Iterative Methods for Sparse
    Linear Systems, Alg. 12.1) on the Jacobi-scaled system.  A polynomial
    in D^-1 A that is below 1 in size on (0, rho]: applied before and
    after the coarse correction it keeps the V-cycle symmetric positive
    definite."""
    lo = rho / CHEB_RATIO
    theta, delta = 0.5 * (rho + lo), 0.5 * (rho - lo)
    sigma = theta / delta
    res = r if x is None else r - A @ x
    d = dinv * res / theta
    x = d.copy() if x is None else x + d
    c = 1.0 / sigma
    for _ in range(CHEB_DEGREE - 1):
        res = res - A @ d
        c_next = 1.0 / (2.0 * sigma - c)
        d = c_next * c * d + (2.0 * c_next / delta) * (dinv * res)
        c = c_next
        x += d
    return x


def _v_cycle(levels, lu, r, k=0):
    """One symmetric V-cycle for A_k x = r from x = 0: Chebyshev smoothing
    around the coarse correction, LU on the coarsest level.

    A module-level function taking its data as arguments: a closure that
    called itself would sit in a reference cycle and keep every solve's
    hierarchy alive until a full garbage collection."""
    if k == len(levels):
        return lu.solve(r)
    A, dinv, rho, P, R = levels[k]
    x = _smooth(A, dinv, rho, r, None)
    x += P @ _v_cycle(levels, lu, R @ (r - A @ x), k + 1)
    return _smooth(A, dinv, rho, r, x)


def solve(problem, tol=SOLVER_TOL, u0=None):
    """Minimize the quadratic by conjugate gradients preconditioned with a
    geometric-multigrid V-cycle on the mesh hierarchy below the problem's
    mesh (`_galerkin_levels`), LU on its coarsest level.  A system
    small enough to be its own coarsest level is solved by LU, and CG
    takes one iteration.

    CG runs on the load scaled by 2^s to a largest entry in [0.5, 1), so
    that its inner products cannot underflow on a tiny load.  A power of
    two scales exactly: wherever CG on the unscaled load stays clear of
    underflow and overflow, the result is bit for bit the same.

    CG starts from the interior values of the displacement u0, scaled by
    the same 2^s, when their residual |K x0 + f| is below |f|, the
    residual of x = 0; otherwise, and without u0, from x = 0.  The
    stopping test |r| < tol |f| and the iteration cap are the same from
    either start.
    """
    if problem.n_dof == 0 or not problem.f.any():
        u = problem.to_full(np.zeros(problem.n_dof))
        return u, SolveReport(0, 0.0, problem.energy(u))
    s = -np.frexp(np.abs(problem.f).max())[1]
    f = np.ldexp(problem.f, s)
    levels, lu = _galerkin_levels(problem)
    # preconditioned CG, step for step SciPy's `cg` from the same start:
    # the same products in the same order, so the same iterates and count
    maxiter, atol = 20 * problem.n_dof, tol * np.linalg.norm(f)
    x, r, its = np.zeros_like(f), -f, 0
    if u0 is not None:
        # a load at round-off size scales u0 by up to 2^1074: an x0 that
        # overflows has no finite residual and fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = np.ldexp(problem.to_interior(u0), s)
            r0 = -f - problem.K @ x0
            if np.linalg.norm(r0) < np.linalg.norm(f):
                x, r = x0, r0
    while its < maxiter and not np.linalg.norm(r) < atol:
        z = _v_cycle(levels, lu, r)
        rho = np.dot(r, z)
        p = z if its == 0 else (rho / rho_prev) * p + z
        q = problem.K @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev, its = rho, its + 1
    res = np.linalg.norm(problem.K @ x + f) / np.linalg.norm(f)
    if its == maxiter or res > tol:
        raise SolverError(
            f"conjugate gradients did not reach tol={tol:g} "
            f"(residual {res:.3e} after {its} iterations)",
            residual=res, iterations=its)
    u = problem.to_full(np.ldexp(x, -s))
    return u, SolveReport(its, float(res), problem.energy(u))


def dual_variable(problem, eps):
    """Optimal dual field p = m eps(u) + E, per element, from the strain
    eps = eps(u)."""
    return problem.m[:, None] * eps + problem.E


def ker_residual(problem, p):
    """Max normalized pairing of p against the interior nodal basis.

    The natural normalization |<p, eps(phi_i)>| / (|p| |eps(phi_i)|)
    degenerates when the optimal dual field vanishes (e.g. an exact
    laminate), so the denominator is floored by the L2 size of the
    inhomogeneity E that defines p.
    """
    mesh = problem.mesh
    p = mesh.check_element_field(p)
    r = mesh.strain_adjoint(p)
    p_scale = max(mesh.l2_norm(p), mesh.l2_norm(problem.E), 1e-300)
    ratios = np.abs(r) / np.maximum(mesh.basis_strain_norms * p_scale, 1e-300)
    return float(ratios.max()) if ratios.size else 0.0


def dual_objective(problem, q):
    """Dual functional I(q) = int [ |q - E|^2 / (2m) - 0.5 B ] dx."""
    mesh = problem.mesh
    q = mesh.check_element_field(q)
    dens = (mesh.frob_norm2(q - problem.E) / (2.0 * problem.m)
            - 0.5 * problem.B)
    return mesh.integrate(dens)


def duality_report(problem, p, alpha):
    """{"gap": the duality gap alpha + I(p) of the primal value alpha,
    "ker_residual": the kernel residual of p}."""
    return {"gap": float(alpha + dual_objective(problem, p)),
            "ker_residual": ker_residual(problem, p)}


def orthogonality_residual(problem, eps, p):
    """Normalized primal-dual orthogonality |<p, eps(u)>|, from the strain
    eps = eps(u).

    Floored the same way as ker_residual for the degenerate p -> 0 case.
    """
    mesh = problem.mesh
    val = abs(mesh.integrate(mesh.frob_dot(p, eps)))
    eps_norm = mesh.l2_norm(eps)
    p_scale = max(mesh.l2_norm(p), mesh.l2_norm(problem.E))
    denom = p_scale * eps_norm
    return val / denom if denom > 0 else 0.0


def alpha_representations(problem, eps, p):
    """Algebraic re-expressions of the optimal value from one solve, read
    from its strain eps = eps(u) and dual field p.

    Returns the direct quadrature value, the two global representations
    obtained from primal-dual orthogonality, the quadratic energy identity
    residual, and the two Omega_0-split representations from
    `energy.omega0_pieces` (with guarded division by b - a off Omega_0).
    """
    mesh, m, E, B = problem.mesh, problem.m, problem.E, problem.B
    w = mesh.measures

    alpha_direct = direct_energy(problem, eps)
    eps2 = mesh.frob_norm2(eps)
    alpha_a = 0.5 * float((w * (-m * eps2 + B)).sum())
    alpha_b = 0.5 * float((w * (mesh.frob_dot(E, eps) + B)).sum())

    lhs = float((w * (m * eps2 + mesh.frob_norm2(p) / m)).sum())
    rhs = float((w * (mesh.frob_norm2(E) / m)).sum())
    ident_res = abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs)))

    split = energy.omega0_pieces(problem.coeffs, eps, p, problem.chi.psi)
    off_part = 0.5 * split["I"]["value"]
    alpha_16 = (off_part + 0.5 * (split["B0"] - split["a_eps2"])
                + 0.5 * split["p_eps"])
    alpha_17 = off_part + 0.5 * split["p2_over_a"] - 0.5 * split["p_eps"]

    return {
        "alpha_direct": alpha_direct,
        "alpha_rep_bulk": alpha_a,
        "alpha_rep_tilt": alpha_b,
        "energy_identity_residual": float(ident_res),
        "alpha_split_primal": float(alpha_16),
        "alpha_split_dual": float(alpha_17),
        "guard_zone_measure": split["I"]["excluded_measure"],
    }
