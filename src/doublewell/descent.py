"""Alternating descent, oscillation seeding and refinement continuation.

The nonconvex energy is driven down by repeating {solve the convex
subproblem for frozen phases; reassign each element to its cheaper
phase}.  Plain alternation stagnates at non-global fixed points, so
laminate seeding (sawtooth displacements with strains at the wells) and
random multistart are provided, plus prolongation of the phase field to
a refined mesh so that the oscillation scale can shrink level by level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import energy, subproblem
from .errors import ConfigurationError, SolverError


@dataclass
class PhaseField:
    chi_a: np.ndarray      # (n_elem,) in {0, 1}

    def __post_init__(self):
        self.chi_a = np.asarray(self.chi_a, float)

    @property
    def chi_b(self):
        return 1.0 - self.chi_a

    @property
    def psi(self):
        return self.chi_b - self.chi_a

    @classmethod
    def from_a_indicator(cls, is_a):
        return cls(np.asarray(is_a, bool).astype(float))

    def flips(self, other):
        return int(np.sum(self.chi_a != other.chi_a))


@dataclass
class RunTrace:
    seed_label: str
    steps: list = field(default_factory=list)
    fixed_point: bool = False
    u: np.ndarray | None = None
    eps: np.ndarray | None = None    # strain of u, per element
    chi: PhaseField | None = None
    p: np.ndarray | None = None

    @property
    def alpha(self):
        return self.steps[-1]["alpha"]

    @property
    def alphas(self):
        return [s["alpha"] for s in self.steps]

    @property
    def budget_exhausted(self):
        return not self.fixed_point


def assign_phases(coeffs, strain):
    """Elementwise argmin over the two phase energies (ties go to a)."""
    ea, eb = energy.well_energies(coeffs, strain)
    return PhaseField.from_a_indicator(ea <= eb)


def alternate(mesh, coeffs, chi, budget=50, tol=1e-10, level=0,
              seed_label="init"):
    """Alternating minimization from the phase field chi: solve for the
    frozen phases, reassign each element to its cheaper phase, repeat
    until no element flips or `budget` steps are spent.  A failed linear
    solve is re-raised as a SolverError that names the level, the seed
    and the step.
    """
    trace = RunTrace(seed_label=seed_label)
    for step in range(budget):
        problem = subproblem.assemble(mesh, coeffs, chi)
        try:
            u, srep = subproblem.solve(problem, tol=tol)
        except SolverError as exc:
            raise SolverError(
                f"level {level}, seed {seed_label!r}, step {step}: {exc}",
                residual=exc.residual, iterations=exc.iterations) from exc
        eps = mesh.symmetrized_gradient(u)
        p = subproblem.dual_variable(problem, eps)
        new_chi = assign_phases(coeffs, eps)
        flips = chi.flips(new_chi)
        trace.steps.append({
            "alpha": srep.alpha,
            **subproblem.duality_report(problem, p, srep.alpha),
            "flips": flips,
            "cg_iterations": srep.iterations,
            "cg_residual": srep.residual,
        })
        trace.u, trace.eps, trace.chi, trace.p = u, eps, chi, p
        if flips == 0:
            trace.fixed_point = True
            break
        chi = new_chi
    return trace


def rank_one_decompose(M):
    """Split a symmetric 2x2 matrix into sym(eta (x) nu), if possible.

    Works exactly when det(M) <= 0.  Returns (eta, nu) or None.
    """
    mu, V = np.linalg.eigh(M)
    scale = max(abs(mu[0]), abs(mu[1]), 1.0)
    if mu[0] * mu[1] > 1e-12 * scale ** 2:
        return None
    lo, hi = np.sqrt(max(-mu[0], 0.0)), np.sqrt(max(mu[1], 0.0))
    eta = hi * V[:, 1] - lo * V[:, 0]
    nu = hi * V[:, 1] + lo * V[:, 0]
    return eta, nu


def _sawtooth(xi, period, t, sigma1, sigma2):
    """Periodic piecewise-linear profile with slope sigma1 on the first
    t-fraction of each period and sigma2 on the rest; zero at period ends
    whenever t*sigma1 + (1-t)*sigma2 = 0."""
    xm = np.mod(xi, period)
    return sigma1 * np.minimum(xm, t * period) \
        + sigma2 * np.maximum(xm - t * period, 0.0)


def laminate_seed(mesh, coeffs, period_elements):
    """Sawtooth displacement whose strains alternate at the two wells.

    Needs constant coefficients with rank-one-compatible wells; the
    volume fraction t is chosen so the mean strain vanishes (projected to
    [0, 1] best-effort otherwise).  In 2D the layer normal is whichever
    rank-one factor of C - D lies closest to a grid axis (x first on a
    tie), and info['direction'] names that axis.  The laminate is built
    from element 0's wells; when the wells vary over the domain,
    info['wells_vary'] is set and a warning says so.  Returns
    (u, chi, info) or (None, None, info) when the wells are incompatible.
    """
    if period_elements < 1:
        raise ConfigurationError("laminate period must be >= 1 element")
    if np.any(mesh.shape % period_elements != 0):
        raise ConfigurationError(
            f"laminate period {period_elements} does not divide the "
            f"element counts {tuple(mesh.shape)}")
    C, D = coeffs.C[0], coeffs.D[0]
    wells_vary = bool(np.any(coeffs.C != C) or np.any(coeffs.D != D))
    if wells_vary:
        warnings.warn("the wells vary over the domain; the laminate seed "
                      "is built from element 0's wells", stacklevel=2)
    delta = C - D
    dn2 = float(mesh.frob_dot(delta, delta))
    info = {"compatible": True, "t": None, "direction": None,
            "wells_vary": wells_vary}
    if dn2 == 0.0:
        info["compatible"] = False
        info["reason"] = "coinciding wells"
        return None, None, info
    t_raw = float(mesh.frob_dot(delta, -D)) / dn2
    t = min(max(t_raw, 0.0), 1.0)
    info["t"] = t
    info["exact_mean_zero"] = bool(
        np.allclose(t * C + (1.0 - t) * D, 0.0, atol=1e-12 * np.sqrt(dn2)))

    h = mesh.extents / mesh.shape
    if mesh.dim == 1:
        period = period_elements * h[0]
        xi = mesh.nodes[:, 0]
        s = _sawtooth(xi, period, t, -(1.0 - t) * delta[0], t * delta[0])
        u = s[:, None].copy()
        info["direction"] = "x"
    else:
        M = np.array([[delta[0], delta[1]], [delta[1], delta[2]]])
        dec = rank_one_decompose(M)
        if dec is None:
            info["compatible"] = False
            info["reason"] = "det(C - D) > 0: incompatible wells"
            return None, None, info
        eta, nu = dec
        axes = {"x": np.array([1.0, 0.0]), "y": np.array([0.0, 1.0])}
        # eta and nu are interchangeable as layer normal; prefer the one
        # closest to a grid axis
        best = None
        for name, ax in axes.items():
            for cand_nu, cand_eta in ((nu, eta), (eta, nu)):
                nhat = cand_nu / np.linalg.norm(cand_nu)
                score = abs(nhat @ ax)
                if best is None or score > best[0]:
                    best = (score, name, cand_nu, cand_eta)
        _, axis_name, nu, eta = best
        nu_norm = np.linalg.norm(nu)
        nhat = nu / nu_norm
        period = period_elements * h[0 if axis_name == "x" else 1]
        xi = mesh.nodes @ nhat
        s = _sawtooth(xi, period, t,
                      -(1.0 - t) * nu_norm, t * nu_norm)
        u = np.outer(s, eta)
        info["direction"] = axis_name
    u[mesh.boundary_mask] = 0.0
    chi = assign_phases(coeffs, mesh.symmetrized_gradient(u))
    return u, chi, info


def random_phase(mesh, rng):
    """Independent fair coin per element."""
    return PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)


def parse_seed_spec(spec):
    """Name, flip fraction and laminate period of a seed spec:
    'zero' and 'random' (fraction and period None), 'laminate[:<period>]'
    (fraction 0) and 'laminate-perturbed[:<fraction>[:<period>]]'.  The
    period is an integer >= 1 and defaults to 2; the fraction is a float
    in [0, 1] and defaults to 0.05.  Anything else raises
    ConfigurationError."""
    name, *args = spec.split(":")
    if name in ("zero", "random") and not args:
        return name, None, None
    if name == "laminate" and len(args) <= 1:
        frac_s, per_s = "0", (args or ["2"])[0]
    elif name == "laminate-perturbed" and len(args) <= 2:
        frac_s, per_s = args + ["0.05", "2"][len(args):]
    else:
        raise ConfigurationError(f"unknown seed spec {spec!r}")
    bad = ConfigurationError(f"seed spec {spec!r} needs a fraction in "
                             "[0, 1] and an integer period >= 1")
    try:
        frac, period = float(frac_s), int(per_s)
    except ValueError:
        raise bad from None
    if not 0.0 <= frac <= 1.0 or period < 1:
        raise bad
    return name, frac, period


def build_seed(mesh, coeffs, spec, rng):
    """The phase field a seed spec (see `parse_seed_spec`) starts from;
    a laminate on incompatible wells starts from 'random' phases."""
    name, frac, period = parse_seed_spec(spec)
    if name == "zero":
        return assign_phases(
            coeffs, mesh.symmetrized_gradient(mesh.zero_displacement()))
    if name == "random":
        return random_phase(mesh, rng)
    _, chi, _ = laminate_seed(mesh, coeffs, period)
    if chi is None:
        return random_phase(mesh, rng)
    if frac > 0.0:
        flip = rng.random(mesh.n_elem) < frac
        return PhaseField(np.where(flip, 1.0 - chi.chi_a, chi.chi_a))
    return chi


def multistart(mesh, coeffs, seed_specs, rng, continued=None, budget=50,
               tol=1e-10, level=0):
    """Run `alternate` from every seed in spec order, then from
    `continued`, the phases carried from the coarser level (none at the
    coarsest), labelled 'continued'.  Returns every trace, sorted by
    final alpha: the first is the best, and ties keep the start order."""
    if not seed_specs:
        raise ConfigurationError("at least one seed is required")
    starts = [(spec, build_seed(mesh, coeffs, spec, rng))
              for spec in seed_specs]
    if continued is not None:
        starts.append(("continued", continued))
    return sorted((alternate(mesh, coeffs, chi, budget=budget, tol=tol,
                             level=level, seed_label=label)
                   for label, chi in starts), key=lambda t: t.alpha)


def refine_continue(fine_mesh, trace):
    """The phases of a trace on `fine_mesh.coarse` carried to each
    element's children: `multistart`'s `continued` start on `fine_mesh`."""
    return PhaseField(trace.chi.chi_a[fine_mesh.parent])
