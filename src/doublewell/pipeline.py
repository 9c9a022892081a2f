"""Experiment orchestration, report assembly, persistence, verification.

A run executes the descent engine level by level (multistart at the
coarsest level, phase prolongation plus fresh seeds afterwards), then
estimates weak limits, relaxation formulas and Young measures at the
finest level and assembles a deterministic JSON report.  Wall-clock
timings are kept out of report.json so that a fixed config and seed
reproduce it byte for byte; they go to a separate timing file.

`level_analysis` is the one builder of a level's window means, theta
and pairing values: the run calls it on each level's best state and
`verify_run` on the dumped finest one.  `finest_analysis` turns the
finest level's into the finest-level report blocks, and `verify_run`
compares every leaf it rebuilds with report.json.  Omega_0 comes with
the coefficients; only the finest level builds purity sets.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import (config as configmod, descent, limits as limitsmod,
               mesh as meshmod, relaxation, subproblem, youngmeasure)
from . import __version__ as VERSION
from .errors import ConfigurationError, ContractViolation, VerificationError


@dataclass
class RunResult:
    cfg: configmod.RunConfig
    report: dict
    meshes: list
    coeffs_by_level: list
    traces_by_level: list      # per level, its traces best first
    timings: dict


def _trace_record(trace):
    return {
        "seed": trace.seed_label,
        "fixed_point": bool(trace.fixed_point),
        "budget_exhausted": not trace.fixed_point,
        "final_alpha": float(trace.alpha),
        "steps": [dict(step) for step in trace.steps],
    }


def level_analysis(cfg, mesh, coeffs, eps, p, chi):
    """A level's state (strain eps, dual field p, phases chi) analysed:
    its window bundle and `relaxation.gap_theta` record, both None where
    the window does not divide the level, and its pairing values
    int phi p.eps per test bump."""
    values = meshmod.default_test_functions(mesh).values_at(mesh.centers) \
        @ (mesh.measures * mesh.frob_dot(p, eps))
    if np.any(mesh.shape % cfg.window):
        return None, None, values
    bundle = limitsmod.estimate_limits(
        mesh, meshmod.build_windows(mesh, cfg.window), eps, p, chi)
    return bundle, relaxation.gap_theta(mesh, coeffs, bundle), values


def finest_analysis(problem, p, alpha, bundle, theta):
    """The report blocks a finest-level state of dual field p determines,
    from its `level_analysis` bundle and theta record: `final`, `limits`,
    `relaxation` (without the per-level thetas) and `young_measure`, each
    evaluated at the primal value alpha, from the convex problem of its
    phase field (never solved here).  The state's duality gap and kernel
    residual are its last descent step's."""
    mesh, coeffs, eps = problem.mesh, problem.coeffs, bundle.eps_raw
    masks = limitsmod.partition_masks(mesh, coeffs, bundle)
    alpha = float(alpha)
    ortho = subproblem.orthogonality_residual(problem, eps, p)
    return {
        "final": {
            "alpha_scheme": alpha,
            "duality": {"orthogonality_residual": float(ortho)},
            "algebraic_representations": subproblem.alpha_representations(
                problem, eps, p),
        },
        "limits": {
            "n_windows": int(bundle.windows.n_windows),
            "psi_range": [float(bundle.psi_avg.min()),
                          float(bundle.psi_avg.max())],
            "partition": {
                "omega0_measure": float(mesh.measures[coeffs.omega0].sum()),
                "omega0_windows": int(masks.omega0_window.sum()),
                "w0_plus_windows": int(masks.w0_plus.sum()),
                "w0_minus_windows": int(masks.w0_minus.sum()),
            },
        },
        "relaxation": relaxation.relaxation_section(mesh, coeffs, bundle,
                                                    theta, alpha),
        "young_measure": youngmeasure.young_measure_block(
            mesh, coeffs, bundle, masks, alpha),
    }


def run_experiment(cfg):
    """Full pipeline for one configuration; returns a RunResult.  A report
    leaf that is not finite is a ConfigurationError naming it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    meshes = cfg.build_meshes()
    coeffs_by_level = [cfg.build_coeffs(m) for m in meshes]

    traces_by_level, level_blocks, thetas, values = [], [], [], []
    for lvl, (mesh, coeffs) in enumerate(zip(meshes, coeffs_by_level)):
        continued = (descent.refine_continue(mesh, traces_by_level[-1][0])
                     if lvl else None)
        traces = descent.multistart(mesh, coeffs, cfg.seeds, rng, continued,
                                    budget=cfg.budget, level=lvl,
                                    coarser=traces_by_level[-1] if lvl else ())
        best = traces[0]
        traces_by_level.append(traces)
        bundle, theta, row = level_analysis(cfg, mesh, coeffs, best.eps,
                                            best.p, best.chi)
        thetas.append(None if theta is None else theta["theta_coeff1"])
        values.append(row)
        level_blocks.append({
            "n_elem": int(mesh.n_elem),
            "best_alpha": float(best.alpha),
            "traces": [_trace_record(t) for t in traces],
        })
    t_descent = time.perf_counter()

    problem = subproblem.assemble(meshes[-1], coeffs_by_level[-1], best.chi)
    blocks = finest_analysis(problem, best.p, best.alpha, bundle, theta)
    blocks["relaxation"]["theta_by_level"] = thetas
    pairing = limitsmod.pairing_diagnostic(
        meshes[-1], values, bundle,
        meshmod.default_test_functions(meshes[-1]))
    report = {"version": VERSION, "config": cfg.echo(),
              "levels": level_blocks, **blocks,
              "pairing_diagnostic": pairing}
    for path, leaf in _flatten(report):
        if isinstance(leaf, float) and not np.isfinite(leaf):
            raise ConfigurationError(
                f"the run's numbers overflow float64: {path} is {leaf}")
    t_end = time.perf_counter()
    timings = {"descent_seconds": t_descent - t0,
               "analysis_seconds": t_end - t_descent,
               "total_seconds": t_end - t0}
    return RunResult(cfg=cfg, report=report, meshes=meshes,
                     coeffs_by_level=coeffs_by_level,
                     traces_by_level=traces_by_level, timings=timings)


# -- persistence ----------------------------------------------------------

def emit_outputs(result, outdir):
    """Write the run directory and return its file names in writing order:
    config.txt (the config's lines), report.json, timing.txt, the
    finest-level dumps u_finest.csv (displacement after the node
    coordinates) and fields_finest.csv (phase, strain and dual field after
    the element centres).  Every other number a run computes, the descent
    traces and the per-level thetas included, is in report.json alone;
    `verify` rebuilds the window means from the dumps."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def path(name):
        written.append(name)
        return os.path.join(outdir, name)

    with open(path("config.txt"), "w") as fh:
        fh.write("\n".join(result.cfg.raw_lines) + "\n")
    with open(path("report.json"), "w") as fh:
        fh.write(json.dumps(result.report, indent=2, allow_nan=False) + "\n")
    with open(path("timing.txt"), "w") as fh:
        # fixed width, so that the file's size does not vary with the times
        for k, v in result.timings.items():
            fh.write(f"{k} = {v:12.6f}\n")

    mesh = result.meshes[-1]
    best = result.traces_by_level[-1][0]
    meshmod.dump_node_field(path("u_finest.csv"), mesh, {"u": best.u})
    meshmod.dump_element_field(
        path("fields_finest.csv"), mesh,
        {"chi_a": best.chi.chi_a, "eps": best.eps, "p": best.p})
    return written


# -- verification of persisted runs ---------------------------------------

def load_report(run_dir):
    """The parsed report.json of a run directory; a file that is missing,
    unreadable or not JSON is a VerificationError naming report.json."""
    try:
        with open(os.path.join(run_dir, "report.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise VerificationError(f"report.json is not JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise VerificationError(f"report.json: {exc}") from exc


def report_leaf(report, path, kind=float):
    """The leaf at a dotted path of a loaded report.json, of `kind`: float
    (any JSON number) or bool.  A path may index lists, negative indices
    counting from the end: `levels[-1].best_alpha`.  A missing path or a
    leaf of another kind is a VerificationError naming the path."""
    leaf = report
    for key in path.replace("[", ".[").split("."):
        key = int(key[1:-1]) if key.startswith("[") else key
        keys = range(-len(leaf), len(leaf)) if isinstance(leaf, list) else leaf
        if not isinstance(leaf, (dict, list)) or key not in keys:
            raise VerificationError(f"report.json has no {path}")
        leaf = leaf[key]
    if type(leaf) not in ((int, float) if kind is float else (kind,)):
        raise VerificationError(f"report.json has {leaf!r} at {path}, "
                                f"not a {kind.__name__}")
    return leaf


def _read_dump(run_dir, name, columns, check):
    """`check` of the named columns of a dumped CSV, stacked; a missing or
    unreadable file, a missing column, a value that is not finite or a
    shape `check` rejects (no rows, say) is a VerificationError naming the
    file, raised before any analysis and without a warning."""
    try:
        with warnings.catch_warnings():
            # NumPy warns on a table with no rows; `check` rejects its shape
            warnings.simplefilter("ignore", UserWarning)
            data = meshmod.read_csv(os.path.join(run_dir, name), columns)
        cols = np.stack(list(data.values()), axis=1)
        if not np.isfinite(cols).all():
            raise ValueError("a value is not finite")
        return check(cols)
    except (OSError, ValueError, ContractViolation) as exc:
        raise VerificationError(f"{name}: {exc}") from exc


def load_run(run_dir):
    """Rebuild mesh, coefficients and finest fields from a run directory:
    the strain of the dumped displacement, the phases (a dumped chi_a must
    be 0 or 1) and the dual field."""
    cfg = configmod.parse_config(os.path.join(run_dir, "config.txt"))
    mesh = cfg.build_finest_mesh()
    coeffs = cfg.build_coeffs(mesh)
    eps = _read_dump(run_dir, "u_finest.csv",
                     [f"u_{k}" for k in range(mesh.dim)],
                     mesh.symmetrized_gradient)
    def phases_and_p(cols):
        if not np.isin(cols[:, 0], (0.0, 1.0)).all():
            raise ValueError("chi_a is not 0 or 1 in every element")
        return (descent.PhaseField.from_a_indicator(cols[:, 0] == 1.0),
                mesh.check_element_field(cols[:, 1:]))
    chi, p = _read_dump(run_dir, "fields_finest.csv",
                        ["chi_a"] + [f"p_{k}" for k in range(mesh.n_comp)],
                        phases_and_p)
    return cfg, mesh, coeffs, eps, chi, p


def _flatten(tree, path=""):
    """(dotted path, leaf) pairs of a JSON tree; each list's length is a
    leaf of its own."""
    if isinstance(tree, dict):
        for key, val in tree.items():
            yield from _flatten(val, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        yield f"len({path})", len(tree)
        for k, val in enumerate(tree):
            yield from _flatten(val, f"{path}[{k}]")
    else:
        yield path, tree


def _leaf_residual(rebuilt, reported):
    """|rebuilt - reported| for a rebuilt float and a reported number (inf
    for NaN); otherwise 0 for equal values of one type, inf else."""
    if isinstance(rebuilt, float) and type(reported) in (int, float):
        res = abs(rebuilt - reported)
        return res if res == res else float("inf")
    same = type(rebuilt) is type(reported) and rebuilt == reported
    return 0.0 if same else float("inf")


def verify_run(run_dir):
    """Rebuild the finest-level blocks from the dumps at the reported
    alpha, with the last per-level theta, the finest level's best trace,
    whose final state is the dumped one (its last step, its alphas and
    its flags, `fixed_point` from the dumped phases and strain), and the
    pairing diagnostic from the reported coarser values (each read with
    `report_leaf`) and the dumped state's, all of it but those values,
    and compare every leaf with report.json: floats within
    `1e-10 * (1 + |alpha|)`, anything else exactly.  Also checks the
    dumped state's energy against alpha, p = m eps + E, and the lower
    bound against the recomputed alpha.  Returns a dict of residuals;
    raises VerificationError naming every failed check and leaf path."""
    report = load_report(run_dir)
    alpha_rep = float(report_leaf(report, "final.alpha_scheme"))
    cfg, mesh, coeffs, eps, chi, p = load_run(run_dir)
    problem = subproblem.assemble(mesh, coeffs, chi)
    bundle, theta, values = level_analysis(cfg, mesh, coeffs, eps, p, chi)
    blocks = finest_analysis(problem, p, alpha_rep, bundle, theta)
    flips = chi.flips(descent.assign_phases(coeffs, eps))
    rebuilt, reported = dict(_flatten(blocks)), dict(_flatten(report))

    def last(path):     # the path of a reported list's last entry
        return f"{path}[{reported.get(f'len({path})', 0) - 1}]"
    level = last("levels")
    trace = f"{level}.traces[0]"
    step = last(f"{trace}.steps")
    # the coarser levels' values are not dumped: the reported ones stand
    # in for them, and every other pairing leaf follows from them
    coarser = [f"pairing_diagnostic.value[{k}]" for k in range(cfg.levels - 1)]
    rows = [[report_leaf(report, f"{row}[{i}]") for i in range(len(values))]
            for row in coarser]
    pairing = limitsmod.pairing_diagnostic(
        mesh, rows + [values], bundle, meshmod.default_test_functions(mesh))
    rebuilt.update(
        (path, leaf) for path, leaf in _flatten(pairing, "pairing_diagnostic")
        if not path.startswith(tuple(f"{row}[" for row in coarser)))
    rebuilt.update({
        last("relaxation.theta_by_level"): theta["theta_coeff1"],
        f"{level}.n_elem": int(mesh.n_elem),
        f"{level}.best_alpha": alpha_rep,
        f"{trace}.final_alpha": alpha_rep,
        f"{trace}.fixed_point": flips == 0,
        f"{trace}.budget_exhausted": flips != 0,
        f"{step}.alpha": alpha_rep,
        **{f"{step}.{key}": val for key, val in
           subproblem.duality_report(problem, p, alpha_rep).items()},
        f"{step}.flips": flips,
    })
    residuals = {path: _leaf_residual(val, reported[path])
                 if path in reported else float("inf")
                 for path, val in rebuilt.items()}
    alpha_re = blocks["final"]["algebraic_representations"]["alpha_direct"]
    bound = blocks["relaxation"]["lower_bound"]["bound"]

    tol = 1e-10 * (1.0 + abs(alpha_rep))
    checks = {
        "alpha_recomputed": alpha_re,
        "alpha_reported": alpha_rep,
        "alpha_residual": abs(alpha_re - alpha_rep),
        "p_residual": float(np.abs(
            subproblem.dual_variable(problem, eps) - p).max()),
        "lower_bound_excess": max(0.0, bound - alpha_re),
        "leaves_compared": len(rebuilt),
        "leaf_residual": max(residuals.values()),
    }
    failed = [f"{k}={checks[k]:.3e}" for k in
              ("alpha_residual", "p_residual", "lower_bound_excess")
              if not checks[k] <= tol]
    failed += [f"{path}: reported "
               f"{repr(reported[path]) if path in reported else 'nothing'}"
               f", rebuilt {rebuilt[path]!r}"
               for path, res in residuals.items() if not res <= tol]
    if failed:
        raise VerificationError("verification residual exceeded: "
                                + "; ".join(failed))
    return checks


def run_and_emit(cfg, outdir):
    """Convenience wrapper for the CLI: create outdir, run, persist, return
    the result.  An outdir that cannot be created fails before the run."""
    os.makedirs(outdir, exist_ok=True)
    result = run_experiment(cfg)
    emit_outputs(result, outdir)
    return result
