"""Checks of a run directory made apart from the program.

The finest triangulation, the P1 strains, the coefficients and the
energy are rebuilt here with NumPy alone and compared with what
`doublewell` dumped.  Every check returns (passed, value); `check_run`
collects them by name.
"""

import hashlib
import json
import os

import numpy as np

from workloads import WORKLOADS

FROB = np.array([1.0, 2.0, 1.0])   # packed [xx, xy, yy] Frobenius weights


def frob(x, y):
    return (x * y * FROB).sum(axis=-1)


def read_csv(path):
    """Columns of a numeric CSV with one header line, by name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def triangulation(cells, extent):
    """Square [0, extent]^2 with cells x cells quads, each cut along its
    rising diagonal.  Nodes run x-fastest; quad q gives triangles 2q (below
    the diagonal) and 2q + 1 (above)."""
    n1 = cells + 1
    node_i, node_j = np.arange(n1 * n1) % n1, np.arange(n1 * n1) // n1
    nodes = np.column_stack([node_i, node_j]) * (extent / cells)
    q = np.arange(cells * cells)
    sw = (q // cells) * n1 + q % cells
    se, nw = sw + 1, sw + n1
    ne = nw + 1
    tris = np.empty((2 * q.size, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([sw, se, ne])
    tris[1::2] = np.column_stack([sw, ne, nw])
    boundary = ((node_i == 0) | (node_i == cells)
                | (node_j == 0) | (node_j == cells))
    return nodes, tris, boundary


def strains(nodes, tris, u):
    """Areas and packed symmetric gradients of a P1 field on triangles:
    grad u = [u1 - u0, u2 - u0] [p1 - p0, p2 - p0]^-1."""
    p = nodes[tris]
    edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    du = np.stack([u[tris[:, 1]] - u[tris[:, 0]],
                   u[tris[:, 2]] - u[tris[:, 0]]], axis=2)
    grad = du @ np.linalg.inv(edges)
    area = 0.5 * np.abs(np.linalg.det(edges))
    eps = np.column_stack([grad[:, 0, 0],
                           0.5 * (grad[:, 0, 1] + grad[:, 1, 0]),
                           grad[:, 1, 1]])
    return area, eps


def _l2(area, field):
    return float(np.sqrt((area * frob(field, field)).sum()))


def report_digest(run_dir):
    with open(os.path.join(run_dir, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(run_dir, workload, seed):
    """All output checks of one finished run directory.

    Returns the checks by name, the parsed report, and input properties
    of the finest level counted on the benchmark's own mesh."""
    spec = WORKLOADS[workload]
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    nodes, tris, boundary = triangulation(spec["cells"], spec["extent"])
    ucols = read_csv(os.path.join(run_dir, "u_finest.csv"))
    fcols = read_csv(os.path.join(run_dir, "fields_finest.csv"))
    out = {}

    node_xy = np.column_stack([ucols["x"], ucols["y"]])
    centers = nodes[tris].mean(axis=1)
    dumped_centers = np.column_stack([fcols["x_center"], fcols["y_center"]])
    out["same_triangulation"] = (
        node_xy.shape == nodes.shape and centers.shape == dumped_centers.shape
        and np.allclose(node_xy, nodes, rtol=0, atol=1e-12)
        and np.allclose(dumped_centers, centers, rtol=0, atol=1e-12),
        int(tris.shape[0]))
    if not out["same_triangulation"][0]:
        return out, report, {}

    u = np.column_stack([ucols["u_0"], ucols["u_1"]])
    out["u_zero_on_boundary"] = (bool(np.all(u[boundary] == 0.0)),
                                 float(np.abs(u[boundary]).max()))
    area, eps = strains(nodes, tris, u)
    eps_dump = np.column_stack([fcols[f"eps_{k}"] for k in range(3)])
    eps_scale = float(np.abs(eps).max()) + 1.0
    out["strain_matches_dump"] = _within(np.abs(eps - eps_dump).max(),
                                         1e-9 * eps_scale)

    a, b, C, D = spec["coeffs"](centers[:, 0], centers[:, 1])
    chi_a = fcols["chi_a"]
    chi_b = 1.0 - chi_a
    ea = 0.5 * a * frob(eps + C, eps + C)
    eb = 0.5 * b * frob(eps + D, eps + D)
    energy0 = float((area * np.minimum(0.5 * a * frob(C, C),
                                       0.5 * b * frob(D, D))).sum())
    alpha = report["final"]["alpha_scheme"]
    alpha_re = float((area * (chi_a * ea + chi_b * eb)).sum())
    out["alpha_recomputed"] = _within(abs(alpha_re - alpha), 1e-9 * energy0)

    # chi is the pointwise argmin; near-ties may go either way
    tie = 1e-9 * (ea + eb + energy0)
    wrong = ((chi_a == 1.0) & (ea > eb + tie)) \
        | ((chi_a == 0.0) & (eb > ea + tie)) \
        | ((chi_a != 0.0) & (chi_a != 1.0))
    out["phase_is_argmin"] = (not wrong.any(), int(wrong.sum()))

    m = chi_a * a + chi_b * b
    E = (chi_a * a)[:, None] * C + (chi_b * b)[:, None] * D
    p = np.column_stack([fcols[f"p_{k}"] for k in range(3)])
    out["dual_is_m_eps_plus_E"] = _within(
        np.abs(p - (m[:, None] * eps + E)).max(),
        1e-9 * (float(np.abs(E).max()) + eps_scale))

    # discrete equilibrium: p is orthogonal to the strains of u and of
    # random interior test displacements drawn from the benchmark seed
    p_scale = max(_l2(area, p), _l2(area, E))
    worst = abs(float((area * frob(p, eps)).sum())) \
        / (p_scale * max(_l2(area, eps), 1e-300))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(u.shape)
        v[boundary] = 0.0
        ev = strains(nodes, tris, v)[1]
        worst = max(worst, abs(float((area * frob(p, ev)).sum()))
                    / (p_scale * _l2(area, ev)))
    out["dual_orthogonal"] = _within(worst, 1e-7)

    bound = report["relaxation"]["lower_bound"]["bound"]
    out["lower_bound_below_alpha"] = (0.0 <= bound <= alpha, bound)
    rises = [s1["alpha"] - s0["alpha"]
             for lvl in report["levels"] for trace in lvl["traces"]
             for s0, s1 in zip(trace["steps"], trace["steps"][1:])]
    out["descent_monotone"] = _within(max(rises, default=0.0),
                                      1e-10 * max(1.0, energy0))
    out.update(spec["check"](report, energy0))
    facts = {"coefficient_tuples": int(np.unique(
        np.column_stack([a, b, C, D]), axis=0).shape[0]),
        "finest_dofs": int(2 * (~boundary).sum())}
    return out, report, facts


def _within(value, limit):
    return (bool(value <= limit), float(value))
