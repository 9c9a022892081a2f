"""Window-averaged weak-limit estimates, set partitions and the gap scalar.

Oscillating fields do not converge pointwise; their weak limits are
approximated by measure-weighted means over spatial windows of fixed
physical size at the finest refinement level.  The same windows feed the
relaxation formulas and the Young-measure estimator.  Omega_0 is a
property of the coefficients (`energy.CoefficientSet.omega0`); the window
partition holds per-window sets only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import window_average, window_expand


@dataclass
class LimitBundle:
    windows: object
    eps_avg: np.ndarray       # (n_w, n_comp)
    p_avg: np.ndarray         # (n_w, n_comp)
    chia_avg: np.ndarray      # (n_w,)
    chib_avg: np.ndarray
    psi_avg: np.ndarray
    eps_raw: np.ndarray       # finest-level per-element strain


@dataclass
class PartitionMasks:
    """Per-window sets: Omega_0's windows, the purity sets and their union."""
    omega0_window: np.ndarray   # window fully inside Omega_0
    w0_plus: np.ndarray         # per window: psi_avg >= 1 - 2 eta
    w0_minus: np.ndarray        # per window: psi_avg <= -1 + 2 eta

    @property
    def w0(self):
        return self.w0_plus | self.w0_minus


def estimate_limits(mesh, windows, strain, p, chi):
    """Window means of the oscillating fields of one state: its strain,
    dual field and phases."""
    return LimitBundle(
        windows=windows,
        eps_avg=window_average(strain, mesh, windows),
        p_avg=window_average(p, mesh, windows),
        chia_avg=window_average(chi.chi_a, mesh, windows),
        chib_avg=window_average(chi.chi_b, mesh, windows),
        psi_avg=window_average(chi.psi, mesh, windows),
        eps_raw=strain,
    )


def partition_masks(mesh, coeffs, bundle, eta=0.05):
    """The windows that lie inside the coefficients' Omega_0, and the
    purity sets (threshold eta on the limiting phase fractions)."""
    w = bundle.windows
    om0_w = np.ones(w.n_windows, dtype=bool)
    np.minimum.at(om0_w, w.elem_window, coeffs.omega0)
    plus = bundle.psi_avg >= 1.0 - 2.0 * eta
    minus = bundle.psi_avg <= -1.0 + 2.0 * eta
    return PartitionMasks(om0_w, plus, minus)


def gap_d(mesh, coeffs, bundle):
    """Oscillation gap over Omega_0: second moments minus squared means.

    Nonnegative up to tolerance (Jensen per window).
    """
    om0 = coeffs.omega0
    sec = mesh.frob_norm2(bundle.eps_raw)
    mean2 = mesh.frob_norm2(window_expand(bundle.eps_avg, bundle.windows))
    d = float((mesh.measures * coeffs.a * (sec - mean2) * om0).sum())
    return d


def pairing_diagnostic(mesh, values, bundle, testset):
    """Residuals of  int phi p.eps(u)  against the windowed limit
    surrogate, per test bump and refinement level.

    `values` holds one row per level, coarsest first: the level's
    int phi p.eps(u) per test bump.  The limit side comes from the window
    averages of the finest level, `mesh`.  Returns the limit per test and
    the value and residual per level and test.
    """
    w = bundle.windows
    lim_dens = w.measures * mesh.frob_dot(bundle.p_avg, bundle.eps_avg)
    lim_vals = testset.values_at(w.centers) @ lim_dens     # (n_test,)
    vals = np.asarray(values)                               # (n_lvl, n_test)
    res = np.abs(vals - lim_vals)
    flags = []
    if len(vals) >= 2:
        # slack absorbs the window-discretization noise floor once
        # the residual has plateaued
        slack = np.maximum(1e-8, 0.01 * res[-2])
        flags = (res[-1] > res[-2] + slack).tolist()
    return {"limit": lim_vals.tolist(), "value": vals.tolist(),
            "residual": res.tolist(), "non_decreasing_flags": flags}
