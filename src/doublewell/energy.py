"""Coefficient data and the pointwise algebra of the double-well density.

The nonconvex density is the pointwise minimum of two quadratic phase
energies

    0.5 * a |xi + C|^2   and   0.5 * b |xi + D|^2

with scalar moduli a, b >= MODULUS_FLOOR > 0 and symmetric tilts C, D,
all piecewise constant per element.  Matrices use the packed storage and
Frobenius weights of the owning mesh (`subproblem.assemble` evaluates
the terms m, E and B of one phase field's convex problem).  The moduli
alone fix Omega_0 = {a = b} and its guard zone, where b - a is too small
to divide by: `CoefficientSet` decides both once, and keeps |C - D|^2
once it is first read.  The Omega_0-split integrals (`omega0_pieces`,
with the guarded off-Omega_0 integral I) are written once: the split
representations of one solve evaluate them on its own fields, the
relaxation formulas on the window means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation

MODULUS_FLOOR = 1e-12


@dataclass
class CoefficientSet:
    mesh: object
    a: np.ndarray          # (n_elem,)
    b: np.ndarray          # (n_elem,)
    C: np.ndarray          # (n_elem, n_comp)
    D: np.ndarray          # (n_elem, n_comp)
    omega0: np.ndarray = field(init=False)   # (n_elem,) a = b
    guard: np.ndarray = field(init=False)    # off Omega_0, b - a too small

    def __post_init__(self):
        m = self.mesh
        self.a = np.broadcast_to(np.asarray(self.a, float),
                                 (m.n_elem,)).copy()
        self.b = np.broadcast_to(np.asarray(self.b, float),
                                 (m.n_elem,)).copy()
        self.C = np.broadcast_to(np.atleast_2d(np.asarray(self.C, float)),
                                 (m.n_elem, m.n_comp)).copy()
        self.D = np.broadcast_to(np.atleast_2d(np.asarray(self.D, float)),
                                 (m.n_elem, m.n_comp)).copy()
        moduli = np.concatenate([self.a, self.b])
        if not np.all((moduli >= MODULUS_FLOOR) & (moduli < np.inf)):
            raise ContractViolation(
                f"phase moduli must be finite and satisfy a, b >= "
                f"{MODULUS_FLOOR:g}")
        # squares that overflow would only show as NaN after the descent;
        # a|C|^2 and b|D|^2 are finite only where |C|^2 and |D|^2 are
        with np.errstate(over="ignore", invalid="ignore"):
            squares = (self.a * m.frob_norm2(self.C),
                       self.b * m.frob_norm2(self.D),
                       m.frob_norm2(self.C - self.D))
        if not all(np.isfinite(sq).all() for sq in squares):
            raise ContractViolation(
                "tilt matrices must be finite, and so must |C|^2, |D|^2, "
                "|C - D|^2, a|C|^2 and b|D|^2")
        gap = np.abs(self.a - self.b)
        scale = self.a.max() + self.b.max()
        self.omega0 = gap <= 1e-12 * scale
        self.guard = ~self.omega0 & (gap < 1e-8 * scale)

    @cached_property
    def cd2(self):
        """|C - D|^2 per element, computed on first use: the descent never
        reads it, so a level's solves run without it in memory."""
        return self.mesh.frob_norm2(self.C - self.D)

    def constant_values(self):
        """(a, b, C, D) when spatially constant, else raises."""
        for arr in (self.a, self.b):
            if np.ptp(arr) != 0.0:
                raise ContractViolation("coefficients are not constant")
        for arr in (self.C, self.D):
            if np.any(np.ptp(arr, axis=0) != 0.0):
                raise ContractViolation("coefficients are not constant")
        return float(self.a[0]), float(self.b[0]), self.C[0].copy(), \
            self.D[0].copy()


def well_energies(coeffs, strain):
    """Both phase energies per element: (0.5 a |xi+C|^2, 0.5 b |xi+D|^2)."""
    m = coeffs.mesh
    strain = m.check_element_field(strain)
    ea = 0.5 * coeffs.a * m.frob_norm2(strain + coeffs.C)
    eb = 0.5 * coeffs.b * m.frob_norm2(strain + coeffs.D)
    return ea, eb


def h_density(coeffs, strain):
    """Nonconvex density h = min of the two phase energies, per element."""
    ea, eb = well_energies(coeffs, strain)
    return np.minimum(ea, eb)


def omega0_pieces(coeffs, eps, p, psi):
    """The integrals the Omega_0-split representations combine, from the
    per-element strain eps, dual field p and phase field psi (binary, or
    window means in [-1, 1]).

    Over Omega_0 (where a = b): the offset B0, a |eps|^2, p : eps and
    |p|^2 / a.  Off it: the integral I of the density that eliminates
    psi eps via p, as {value, excluded_measure}; the division by b - a is
    guarded, so I excises the guard zone and reports its measure.
    """
    m = coeffs.mesh
    w, a, b, omega0 = m.measures, coeffs.a, coeffs.b, coeffs.omega0
    C2 = m.frob_norm2(coeffs.C)
    D2 = m.frob_norm2(coeffs.D)
    B0 = a * (C2 + D2) / 2.0 + psi * a * (D2 - C2) / 2.0
    value, rest = 0.0, ~(omega0 | coeffs.guard)
    if rest.any():
        ab_ = a * b
        dba = np.where(rest, b - a, 1.0)
        dens = (m.frob_dot((ab_ / dba)[:, None] * (coeffs.C - coeffs.D),
                           eps)
                + m.frob_dot((b[:, None] * coeffs.D
                              - a[:, None] * coeffs.C) / dba[:, None], p)
                + ab_ * (C2 - D2) / (2.0 * dba)
                - psi * ab_ * coeffs.cd2 / (2.0 * dba))
        value = float((w * dens * rest).sum())
    return {
        "B0": float((w * B0 * omega0).sum()),
        "a_eps2": float((w * a * m.frob_norm2(eps) * omega0).sum()),
        "p_eps": float((w * m.frob_dot(p, eps) * omega0).sum()),
        "p2_over_a": float((w * m.frob_norm2(p) / a * omega0).sum()),
        "I": {"value": value,
              "excluded_measure": float(w[coeffs.guard].sum())},
    }
