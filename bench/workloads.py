"""The benchmark's workloads: a config file each, the finest mesh it
builds, and the benchmark's own evaluation of its coefficients.

The coefficient functions restate the expressions in `configs/*.ini` in
plain NumPy, so that the output checks do not go through the program's
expression evaluator.  Each returns (a, b, C, D) at element centers
(x, y), with C and D packed as [xx, xy, yy].
"""

import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _packed(xx, xy, yy, like):
    return np.stack([np.broadcast_to(v, like.shape).astype(float)
                     for v in (xx, xy, yy)], axis=1)


def compat2d_coeffs(x, y):
    one = np.ones_like(x)
    return (one, one, _packed(0.0, 0.5, 0.0, x), _packed(0.0, -0.5, 0.0, x))


def graded2d_coeffs(x, y):
    a = 1.0 + 0.5 * x
    b = np.where(y < 0.5, a, 2.0 + x * y)
    return (a, b, _packed(0.0, 0.5 + 0.25 * y, 0.0, x),
            _packed(0.0, -0.5 + 0.1 * x, 0.0, x))


def _levels_decrease(report, energy0):
    """Refinement lowers the best energy level by level, and the finest is
    at most 5 % of the coarsest (the compatible wells admit laminates)."""
    alphas = [lvl["best_alpha"] for lvl in report["levels"]]
    steady = all(b <= a for a, b in zip(alphas, alphas[1:]))
    return {"levels_non_increasing": (steady, alphas),
            "finest_vs_coarsest": (alphas[-1] <= 0.05 * alphas[0],
                                   alphas[-1] / alphas[0])}


def _below_zero_displacement(report, energy0):
    """The scheme beats the energy of u = 0, the pointwise cheaper well."""
    alpha = report["final"]["alpha_scheme"]
    return {"alpha_below_zero_displacement": (alpha <= energy0,
                                              alpha / energy0)}


WORKLOADS = {
    "compat2d": {"config": "compat2d.ini", "cells": 256, "extent": 1.0,
                 "coeffs": compat2d_coeffs, "check": _levels_decrease},
    "graded2d": {"config": "graded2d.ini", "cells": 64, "extent": 1.0,
                 "coeffs": graded2d_coeffs,
                 "check": _below_zero_displacement},
}


def config_path(name):
    return os.path.join(HERE, "configs", WORKLOADS[name]["config"])
