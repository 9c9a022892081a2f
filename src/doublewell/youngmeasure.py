"""Empirical parametrized Young measures per spatial window.

The strain statistics of the finest-level minimizing iterate are
summarized per window as a weighted atomic measure on symmetric-matrix
space: atoms at the element strains, weights |T| / |window|.  Its
first moments and phase weights are the window means of the LimitBundle;
its other moments are whole-array window means too.  Verified against it:
the energy representation through the nonconvex density, the
second-moment/gap relation, the Dirac property on the pure-phase set and
the two-point variance on windows whose atoms sit at the wells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import energy
from .mesh import window_average, window_expand


@dataclass
class WindowMoments:
    """Per-window moments of the atomic measures beyond the window means
    (first moments and phase weights) that the LimitBundle holds."""
    second_a: np.ndarray       # (n_w,) int a |lambda|^2 dnu
    h: np.ndarray              # int h dnu
    variance: np.ndarray       # int |lambda - mean|^2 dnu (Frobenius)


def estimate_ym(mesh, coeffs, bundle):
    """Moments of the per-window atomic measures of the bundle's strain."""
    eps, windows = bundle.eps_raw, bundle.windows
    dev = eps - window_expand(bundle.eps_avg, windows)
    second_a, h, variance = window_average(np.column_stack([
        coeffs.a * mesh.frob_norm2(eps),
        energy.h_density(coeffs, eps),
        mesh.frob_norm2(dev),
    ]), mesh, windows).T
    return WindowMoments(second_a=second_a, h=h, variance=variance)


def ym_energy_check(moments, windows, alpha_scheme):
    """Residual of  alpha = int int h(x, lambda) dnu_x dx."""
    total = float((windows.measures * moments.h).sum())
    return {"ym_energy": total,
            "residual": float(abs(total - alpha_scheme))}


def second_moment_check(mesh, coeffs, bundle):
    """Second moments vs squared means of the strain over Omega_0.

    The difference is the oscillation gap d by construction (identical
    data, two summation orders).
    """
    om0 = coeffs.omega0
    sec = float((mesh.measures * coeffs.a
                 * mesh.frob_norm2(bundle.eps_raw) * om0).sum())
    mean2 = float((mesh.measures * coeffs.a
                   * mesh.frob_norm2(window_expand(bundle.eps_avg,
                                                   bundle.windows))
                   * om0).sum())
    return {"second_moment": sec, "squared_mean": mean2,
            "difference": sec - mean2}


def dirac_check(moments, masks):
    """Strain variance per pure-phase window must vanish (Dirac measure):
    at most 1e-6 (1 + max second moment)."""
    sel = np.nonzero(masks.w0)[0]
    variances = moments.variance[sel]
    tol = 1e-6 * (1.0 + moments.second_a.max())
    return {"windows": [int(w) for w in sel],
            "variances": [float(v) for v in variances],
            "threshold": float(tol),
            "all_passed": bool(np.all(variances <= tol))}


def two_point_variance_check(mesh, coeffs, bundle, moments):
    """For windows whose atoms sit at the wells, the a-weighted gap must
    equal  a chia chib |C - D|^2  (variance of a two-point law).

    An atom sits at a well when it lies within 1e-3 (1 + max |C - D| over
    its window) of it.
    Returns per-window rows; windows with off-well atoms are skipped.
    """
    windows = bundle.windows
    ew = windows.elem_window
    eps = bundle.eps_raw
    cd2 = coeffs.cd2
    cd2_max = np.zeros(windows.n_windows)
    np.maximum.at(cd2_max, ew, cd2)
    tol = window_expand(1e-3 * (1.0 + np.sqrt(cd2_max)), windows)
    dist = np.sqrt(np.minimum(mesh.frob_norm2(eps + coeffs.C),
                              mesh.frob_norm2(eps + coeffs.D)))
    at_wells = np.ones(windows.n_windows, dtype=bool)
    np.minimum.at(at_wells, ew, dist <= tol)
    a_avg, acd2_avg = window_average(
        np.column_stack([coeffs.a, coeffs.a * cd2]), mesh, windows).T
    gap = moments.second_a - a_avg * mesh.frob_norm2(bundle.eps_avg)
    predicted = acd2_avg * bundle.chia_avg * bundle.chib_avg
    return [{"window": int(w), "gap": float(gap[w]),
             "predicted": float(predicted[w])}
            for w in np.nonzero(at_wells)[0]]


def young_measure_block(mesh, coeffs, bundle, masks, alpha_scheme):
    """The Young-measure block of the run report."""
    moments = estimate_ym(mesh, coeffs, bundle)
    return {
        "energy": ym_energy_check(moments, bundle.windows, alpha_scheme),
        "second_moment": second_moment_check(mesh, coeffs, bundle),
        "dirac": dirac_check(moments, masks),
        "two_point_variance": two_point_variance_check(
            mesh, coeffs, bundle, moments),
    }
