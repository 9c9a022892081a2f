"""Coefficient data and the pointwise algebra of the double-well density.

The nonconvex density is the pointwise minimum of two quadratic phase
energies

    0.5 * a |xi + C|^2   and   0.5 * b |xi + D|^2

with scalar moduli a, b >= MODULUS_FLOOR > 0 and symmetric tilts C, D,
all piecewise constant per element.  Matrices use the packed storage and
Frobenius weights of the owning mesh (`subproblem.assemble` evaluates
the terms m, E and B of one phase field's convex problem).  The
Omega_0-split integrals (`omega0_pieces`, with the guarded off-Omega_0
integral I) are written once: the split representations of one solve
evaluate them on its own fields, the relaxation formulas on the window
means.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(self.D))):
            raise ContractViolation("tilt matrices must be finite")

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


def omega0_mask(coeffs):
    """Elements where a = b, up to 1e-12 (max a + max b)."""
    return (np.abs(coeffs.a - coeffs.b)
            <= 1e-12 * (coeffs.a.max() + coeffs.b.max()))


def off_omega0_integral(coeffs, omega0, eps, p, psi):
    """Integral off Omega_0 of the density that eliminates psi eps via p.

    The division by b - a is guarded: elements off Omega_0 with
    |b - a| < 1e-8 (max a + max b) are excised.  Returns the
    integral over the rest and the excised measure.
    """
    m = coeffs.mesh
    a, b = coeffs.a, coeffs.b
    off0 = ~omega0
    guarded = off0 & (np.abs(a - b) >= 1e-8 * (a.max() + b.max()))
    excluded = float(m.measures[off0 & ~guarded].sum())
    if not guarded.any():
        return 0.0, excluded
    ab_ = a * b
    dba = np.where(guarded, b - a, 1.0)
    CD = coeffs.C - coeffs.D
    dens = (m.frob_dot((ab_ / dba)[:, None] * CD, eps)
            + m.frob_dot((b[:, None] * coeffs.D
                          - a[:, None] * coeffs.C) / dba[:, None], p)
            + ab_ * (m.frob_norm2(coeffs.C)
                     - m.frob_norm2(coeffs.D)) / (2.0 * dba)
            - psi * ab_ * m.frob_norm2(CD) / (2.0 * dba))
    return float((m.measures * dens * guarded).sum()), excluded


def omega0_pieces(coeffs, omega0, eps, p, psi):
    """The integrals the Omega_0-split representations combine, from the
    per-element strain eps, dual field p and phase field psi (binary, or
    window means in [-1, 1]).

    Over Omega_0 (where a = b): the tilt pairing with eps, the offset B0,
    a |eps|^2, p : eps and |p|^2 / a.  Off it: the guarded integral I of
    `off_omega0_integral`, as {value, excluded_measure}.
    """
    m = coeffs.mesh
    w, a = m.measures, coeffs.a
    C2 = m.frob_norm2(coeffs.C)
    D2 = m.frob_norm2(coeffs.D)
    Aps = ((a[:, None] * (coeffs.C + coeffs.D) / 2.0)
           + psi[:, None] * (a[:, None] * (coeffs.D - coeffs.C) / 2.0))
    B0 = a * (C2 + D2) / 2.0 + psi * a * (D2 - C2) / 2.0
    value, excluded = off_omega0_integral(coeffs, omega0, eps, p, psi)
    return {
        "tilt_eps": float((w * m.frob_dot(Aps, eps) * omega0).sum()),
        "B0": float((w * B0 * omega0).sum()),
        "a_eps2": float((w * a * m.frob_norm2(eps) * omega0).sum()),
        "p_eps": float((w * m.frob_dot(p, eps) * omega0).sum()),
        "p2_over_a": float((w * m.frob_norm2(p) / a * omega0).sum()),
        "I": {"value": value, "excluded_measure": excluded},
    }
