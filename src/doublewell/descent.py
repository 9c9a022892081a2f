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

from . import energy, parallel, subproblem
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


def alternate(mesh, coeffs, chi, budget=50, level=0, seed_label="init"):
    """Alternating minimization from the phase field chi: solve for the
    frozen phases, reassign each element to its cheaper phase, repeat
    until no element flips or `budget` steps are spent.  Each solve after
    the first may start CG from the previous step's u
    (`subproblem.solve`).  A failed linear solve is re-raised as a
    SolverError, and a step record that holds a number that is not
    finite raises a ConfigurationError, without a NumPy warning and
    before the next solve; each names the level, the seed and the step.
    """
    trace = RunTrace(seed_label=seed_label)
    for step in range(budget):
        where = f"level {level}, seed {seed_label!r}, step {step}"
        problem = subproblem.assemble(mesh, coeffs, chi)
        try:
            u, srep = subproblem.solve(problem, u0=trace.u)
        except SolverError as exc:
            raise SolverError(f"{where}: {exc}", residual=exc.residual,
                              iterations=exc.iterations) from exc
        eps = mesh.symmetrized_gradient(u)
        p = subproblem.dual_variable(problem, eps)
        new_chi = assign_phases(coeffs, eps)
        flips = chi.flips(new_chi)
        with np.errstate(over="ignore", invalid="ignore"):
            record = {
                "alpha": srep.alpha,
                **subproblem.duality_report(problem, p, srep.alpha),
                "flips": flips,
                "cg_iterations": srep.iterations,
                "cg_residual": srep.residual,
            }
        for key, val in record.items():
            if not np.isfinite(val):
                raise ConfigurationError(
                    f"the run's numbers overflow float64: {where}: "
                    f"{key} is {val}")
        trace.steps.append(record)
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
    rank-one factor of C - D has the smallest off-axis share, so one
    exactly on a grid axis wins over one only nearly on it (x first, then
    nu before eta, on a tie).  The laminate is built from element 0's
    wells, with a warning when the wells vary over the domain.  Returns
    (u, chi), or (None, None) when the wells coincide or are not
    rank-one compatible.
    """
    if period_elements < 1:
        raise ConfigurationError("laminate period must be >= 1 element")
    if np.any(mesh.shape % period_elements != 0):
        raise ConfigurationError(
            f"laminate period {period_elements} does not divide the "
            f"element counts {tuple(mesh.shape.tolist())}")
    C, D = coeffs.C[0], coeffs.D[0]
    if np.any(coeffs.C != C) or np.any(coeffs.D != D):
        warnings.warn("the wells vary over the domain; the laminate seed "
                      "is built from element 0's wells", stacklevel=2)
    delta = C - D
    dn2 = float(mesh.frob_dot(delta, delta))
    if dn2 == 0.0:
        return None, None
    t = min(max(float(mesh.frob_dot(delta, -D)) / dn2, 0.0), 1.0)

    h = mesh.extents / mesh.shape
    if mesh.dim == 1:
        s = _sawtooth(mesh.nodes[:, 0], period_elements * h[0], t,
                      -(1.0 - t) * delta[0], t * delta[0])
        u = s[:, None]
    else:
        dec = rank_one_decompose(
            np.array([[delta[0], delta[1]], [delta[1], delta[2]]]))
        if dec is None:
            return None, None
        eta, nu = dec
        # eta and nu are interchangeable as layer normal: take the one
        # closest to a grid axis, the first of x before y, nu before eta.
        # The score is the off-axis share, which is exactly 0 on an axis;
        # the on-axis share rounds to 1 for a factor only nearly on one
        axis, nu, eta = max(
            ((k, n, e) for k in (0, 1) for n, e in ((nu, eta), (eta, nu))),
            key=lambda c: -abs(c[1][1 - c[0]]) / np.linalg.norm(c[1]))
        nu_norm = np.linalg.norm(nu)
        s = _sawtooth(mesh.nodes @ (nu / nu_norm), period_elements * h[axis],
                      t, -(1.0 - t) * nu_norm, t * nu_norm)
        u = np.outer(s, eta)
    u[mesh.boundary_mask] = 0.0
    chi = assign_phases(coeffs, mesh.symmetrized_gradient(u))
    return u, chi


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
    a laminate on coinciding or incompatible wells (`laminate_seed`
    returns None) starts from 'random' phases."""
    name, frac, period = parse_seed_spec(spec)
    if name == "zero":
        return assign_phases(
            coeffs, mesh.symmetrized_gradient(mesh.zero_displacement()))
    if name == "random":
        return random_phase(mesh, rng)
    _, chi = laminate_seed(mesh, coeffs, period)
    if chi is None:
        return random_phase(mesh, rng)
    if frac > 0.0:
        flip = rng.random(mesh.n_elem) < frac
        return PhaseField(np.where(flip, 1.0 - chi.chi_a, chi.chi_a))
    return chi


# A level's traces run in forked workers (`parallel.imap`) when their
# work, in element-steps, reaches this: elements times the steps each
# start is expected to take, summed over the starts.  One element-step
# costs about 2.7 us on both benchmark workloads, and two workers save
# half of that; a fork costs 20-40 ms, repaid from about 15,000-30,000.
PARALLEL_MIN_WORK = 32768


def multistart(mesh, coeffs, seed_specs, rng, continued=None, budget=50,
               level=0, coarser=()):
    """Run `alternate` from every seed of `seed_specs` and from
    `continued`, the phases carried from the coarser level (none at the
    coarsest), labelled 'continued'.  Returns every trace, sorted by
    final alpha: the first is the best, and ties keep the start order,
    the seeds in spec order and `continued` last.

    The seeds are drawn from rng first; the traces are then independent.
    `coarser`, the coarser level's traces, tells how many steps each
    start will take: as many as its trace of the same label (at least
    one; a label it lacks counts one).  The starts are handed out most
    steps first, and when the level's work reaches PARALLEL_MIN_WORK
    they run in worker processes, on mesh caches built here so that
    every process shares them."""
    if not seed_specs:
        raise ConfigurationError("at least one seed is required")
    starts = [(spec, build_seed(mesh, coeffs, spec, rng))
              for spec in seed_specs]
    if continued is not None:
        starts.append(("continued", continued))

    def run(k):
        label, chi = starts[k]
        return alternate(mesh, coeffs, chi, budget=budget, level=level,
                         seed_label=label)
    steps = {t.seed_label: max(len(t.steps), 1) for t in coarser}
    expected = [steps.get(label, 1) for label, _ in starts]
    order = sorted(range(len(starts)), key=lambda k: -expected[k])
    run_all = map
    if mesh.n_elem * sum(expected) >= PARALLEL_MIN_WORK:
        subproblem.build_caches(mesh)
        run_all = parallel.imap
    traces = dict(zip(order, run_all(run, order)))
    return sorted((traces[k] for k in range(len(starts))),
                  key=lambda t: t.alpha)


def refine_continue(fine_mesh, trace):
    """The phases of a trace on `fine_mesh.coarse` carried to each
    element's children: `multistart`'s `continued` start on `fine_mesh`."""
    return PhaseField(trace.chi.chi_a[fine_mesh.parent])
