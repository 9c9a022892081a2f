"""Configuration parsing, persistence, CLI subcommands and exit codes."""

import json
import math
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from doublewell import cli, config as configmod, descent, \
    limits as limitsmod, mesh as meshmod, parallel, pipeline, relaxation, \
    subproblem
from doublewell.errors import ConfigurationError, SolverError

from conftest import make_coeffs, make_mesh_1d

SYM_CFG = """
[mesh]
dim = 1
resolution = 32
[coefficients]
C = 1.0
D = -1.0
[strategy]
seeds = laminate:4 zero
[run]
window = 8
"""


def test_minimal_config_defaults():
    cfg = configmod.parse_config_text("")
    assert cfg.dim == 1
    assert cfg.resolution == 64
    assert cfg.levels == 1
    assert cfg.window == 8
    assert cfg.seeds == ("laminate", "zero")


def test_unknown_key_reports_line():
    text = "[mesh]\nvim = 2\n"
    with pytest.raises(ConfigurationError, match="line 2.*vim"):
        configmod.parse_config_text(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigurationError, match="unknown section"):
        configmod.parse_config_text("[solver]\nx = 1\n")


def test_a_key_set_twice_names_both_lines():
    # the second value used to win silently; a repeated header is fine
    with pytest.raises(ConfigurationError,
                       match=r"line 3: 'dim' in \[mesh\] is already set on "
                             r"line 2"):
        configmod.parse_config_text("[mesh]\ndim = 2\ndim = 1\n")
    with pytest.raises(ConfigurationError, match="line 5: 'C'.* line 2"):
        configmod.parse_config_text(
            "[coefficients]\nC = 1.0\n[run]\n[coefficients]\nC = 2.0\n")
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\n[run]\nseed = 3\n[mesh]\nresolution = 8\n")
    assert (cfg.dim, cfg.resolution, cfg.seed) == (2, 8, 3)


def test_negative_tolerance_names_key():
    # a number that is not positive and finite is rejected by its key
    for text, key in (("[mesh]\nextents = nan\n", "extents"),
                      ("[mesh]\ndim = 2\nextents = 1.0 inf\n", "extents")):
        with pytest.raises(ConfigurationError, match=key):
            configmod.parse_config_text(text)


def test_bad_type_reports_line():
    with pytest.raises(ConfigurationError, match="line 2.*levels"):
        configmod.parse_config_text("[mesh]\nlevels = two\n")


def test_piecewise_coefficient_expression():
    cfg = configmod.parse_config_text(
        "[coefficients]\nb = where(x < 0.5, 1.0, 2.0)\n")
    mesh = cfg.build_meshes()[0]
    coeffs = cfg.build_coeffs(mesh)
    assert np.array_equal(coeffs.b,
                          np.where(mesh.centers[:, 0] < 0.5, 1.0, 2.0))


def test_matrix_components_2d():
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 8\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\n")
    mesh = cfg.build_meshes()[0]
    coeffs = cfg.build_coeffs(mesh)
    assert np.allclose(coeffs.C, [0.0, 0.5, 0.0])


def test_expression_cannot_reach_attributes():
    # fullwidth underscores normalise to "__" in identifiers, so a filter on
    # the text "__" lets this dunder walk through to the interpreter
    cfg = configmod.parse_config_text(
        "[coefficients]\na = ()._\uff3fclass_\uff3f._\uff3fmro_\uff3f"
        "._\uff3flen_\uff3f() + 0*x\n")
    mesh = cfg.build_meshes()[0]
    with pytest.raises(ConfigurationError, match="not allowed"):
        cfg.build_coeffs(mesh)
    for expr in ("__import__('os')", "x.real", "[x][0]", "lambda: x",
                 "abs(x, out=x)", "0 < x < 1", "pi()", "'1.0'"):
        cfg = configmod.parse_config_text(f"[coefficients]\na = {expr}\n")
        with pytest.raises(ConfigurationError):
            cfg.build_coeffs(mesh)


def test_expression_whitelist_evaluates_like_numpy():
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 8\n[coefficients]\n"
        "a = 2*x**2 + sqrt(abs(sin(pi*x))) + exp(-y)/3\n"
        "b = where(x < 0.5, 1.0, maximum(minimum(y, 0.3), 0.1) + 1)\n"
        "C = cos(x); 1e-3*x*y - 1; -y\n")
    mesh = cfg.build_meshes()[0]
    coeffs = cfg.build_coeffs(mesh)
    x, y = mesh.centers.T
    assert np.array_equal(coeffs.a, 2 * x ** 2 + np.sqrt(np.abs(np.sin(
        np.pi * x))) + np.exp(-y) / 3)
    assert np.array_equal(coeffs.b, np.where(
        x < 0.5, 1.0, np.maximum(np.minimum(y, 0.3), 0.1) + 1))
    assert np.array_equal(coeffs.C, np.column_stack(
        [np.cos(x), 1e-3 * x * y - 1, -y]))


def test_coefficients_own_their_memory():
    # an expression evaluates to a view, of the mesh's centres for `x`;
    # the coefficient set holds arrays of its own
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 8\n[coefficients]\n"
        "a = x\nb = 2.0\nC = x; 0.5; y\nD = 0.0; y; x\n")
    mesh = cfg.build_meshes()[0]
    coeffs = cfg.build_coeffs(mesh)
    assert np.array_equal(coeffs.a, mesh.centers[:, 0])
    for arr in (coeffs.a, coeffs.b, coeffs.C, coeffs.D):
        assert arr.flags.owndata and arr.flags.writeable
        assert not np.shares_memory(arr, mesh.centers)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    cfg = configmod.parse_config_text(block)
    echo = cfg.echo()
    assert echo["strategy"]["budget"] == 50
    coeffs = cfg.build_coeffs(meshmod.build_mesh((1.0, 1.0), (4, 4), 2))
    assert np.allclose(coeffs.C, [0.0, 0.5, 0.0])


# every key of the schema: (text in the config file, value in cfg.echo())
ALL_KEYS = {
    "mesh": {"dim": ("2", 2), "extents": ("2.0 3.0", [2.0, 3.0]),
             "resolution": ("16", 16), "levels": ("3", 3)},
    "coefficients": {"a": ("2.0", "2.0"), "b": ("1.0 + x", "1.0 + x"),
                     "C": ("0.5", "0.5"), "D": ("-0.5", "-0.5")},
    "strategy": {"seeds": ("random zero", ["random", "zero"]),
                 "budget": ("7", 7)},
    "run": {"window": ("4", 4), "seed": ("3", 3)},
}


def test_every_schema_key_reaches_the_echo():
    assert {s: set(keys) for s, keys in ALL_KEYS.items()} == \
        {s: set(keys) for s, keys in configmod._SCHEMA.items()}
    text = "".join(
        f"[{section}]\n" + "".join(f"{key} = {raw}\n"
                                   for key, (raw, _) in keys.items())
        for section, keys in ALL_KEYS.items())
    echo = configmod.parse_config_text(text).echo()
    default = configmod.RunConfig().echo()
    for section, keys in ALL_KEYS.items():
        for key, (_, value) in keys.items():
            assert echo[section][key] == value, (section, key)
            assert default[section][key] != value, (section, key)


# removed keys: the whole [tolerances] section (the derived thresholds,
# the CG tolerance and the pure-phase threshold are constants in the
# code), and the output directory, which only `solve --outdir` names
REMOVED_KEYS = [("tolerances", "guard_scale"), ("tolerances", "dirac_tol"),
                ("tolerances", "tol_den"), ("tolerances", "dist_tol"),
                ("tolerances", "solver_tol"), ("tolerances", "eta"),
                ("run", "outdir")]


@pytest.mark.parametrize("section, key", REMOVED_KEYS,
                         ids=[key for _, key in REMOVED_KEYS])
def test_derived_thresholds_are_not_config_keys(section, key, tmp_path,
                                                capsys):
    text = f"[{section}]\n{key} = 1e-5\n"
    message = (r"unknown section \[tolerances\]" if section == "tolerances"
               else f"unknown key '{key}'")
    with pytest.raises(ConfigurationError, match=message):
        configmod.parse_config_text(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main(["solve", str(cfg_path), "--outdir",
                     str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_load_run_builds_only_the_finest_mesh(tmp_path, monkeypatch):
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 4\nlevels = 3\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4\n[run]\nwindow = 4\n")
    result = pipeline.run_experiment(cfg)
    pipeline.emit_outputs(result, tmp_path)
    calls = {"build_mesh": 0, "refine": 0}
    for name in calls:
        def counted(*args, _orig=getattr(meshmod, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(meshmod, name, counted)
    _, mesh, *_ = pipeline.load_run(tmp_path)
    finest = result.meshes[-1]
    assert np.array_equal(mesh.nodes, finest.nodes)
    assert np.array_equal(mesh.elements, finest.elements)
    assert calls == {"build_mesh": 1, "refine": 0}
    bad = configmod.parse_config_text(
        "[mesh]\nresolution = 30\n[run]\nwindow = 8\n")
    with pytest.raises(ConfigurationError, match="window"):
        bad.build_finest_mesh()


def test_each_grid_is_built_once(monkeypatch):
    # the run's levels 16^2 and 32^2 and the multigrid level 8^2 below
    # them: three distinct grids, three builds, shared by the run and the
    # solver
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 16\nlevels = 2\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4\nbudget = 3\n")
    shapes = []
    build = meshmod.build_mesh
    monkeypatch.setattr(meshmod, "build_mesh", lambda *a, **k: (
        shapes.append(tuple(a[1])) or build(*a, **k)))
    result = pipeline.run_experiment(cfg)
    assert sorted(shapes) == [(8, 8), (16, 16), (32, 32)]
    fine, coarse = result.meshes[::-1]
    assert fine.coarse is coarse and coarse.prolongation is not None


def test_each_level_is_analysed_once(tmp_path, monkeypatch):
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 4\nlevels = 3\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4\n[run]\nwindow = 4\n")
    names = ((pipeline, "level_analysis"), (limitsmod, "estimate_limits"),
             (limitsmod, "gap_d"), (relaxation, "gap_denominator"),
             (limitsmod, "partition_masks"))
    calls = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:
        def counted(*args, _orig=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    result = pipeline.run_experiment(cfg)
    assert calls == {"level_analysis": 3, "estimate_limits": 3, "gap_d": 3,
                     "gap_denominator": 3, "partition_masks": 1}
    relax = result.report["relaxation"]
    assert len(relax["theta_by_level"]) == 3
    assert relax["theta_by_level"][-1] == relax["theta_coeff1"]

    strains = []
    gradient = meshmod.StructuredMesh.symmetrized_gradient
    monkeypatch.setattr(meshmod.StructuredMesh, "symmetrized_gradient",
                        lambda *a: strains.append(1) or gradient(*a))
    pipeline.emit_outputs(result, tmp_path)
    assert strains == []
    fields = meshmod.read_csv(tmp_path / "fields_finest.csv",
                              [f"eps_{k}" for k in range(3)])
    eps = gradient(result.meshes[-1], result.traces_by_level[-1][0].u)
    assert np.column_stack([fields[f"eps_{k}"] for k in range(3)]).tobytes() \
        == eps.tobytes()


def test_level_analysis_rebuilds_each_levels_theta_and_pairing_row():
    # the window (8) does not divide the coarsest level's 4 x 4 cells, so
    # that level has no theta; on every level the builder, called on the
    # best trace, gives the reported theta and pairing row bit for bit
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 4\nlevels = 3\n"
        "[coefficients]\nb = 2.0 + x\nC = 0.0; 0.5; 0.0\n"
        "D = 0.0; -0.5; 0.0\n[strategy]\nseeds = laminate:4 zero\n")
    result = pipeline.run_experiment(cfg)
    report = json.loads(json.dumps(result.report))
    thetas = report["relaxation"]["theta_by_level"]
    assert thetas[0] is None and None not in thetas[1:]
    for k, (mesh, coeffs, traces) in enumerate(zip(
            result.meshes, result.coeffs_by_level, result.traces_by_level)):
        best = traces[0]
        bundle, theta, values = pipeline.level_analysis(
            cfg, mesh, coeffs, best.eps, best.p, best.chi)
        assert (bundle is None) == (theta is None) == (k == 0)
        assert (None if theta is None else theta["theta_coeff1"]) \
            == thetas[k]
        assert values.tolist() == report["pairing_diagnostic"]["value"][k]


def in_workers(monkeypatch):
    """Run every level's traces in two worker processes, however small."""
    monkeypatch.setattr(descent, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(parallel, "_cores", lambda: 2)


class CallLog:
    """Lines appended by this process and by every process forked from it
    (the descent's traces run in children), in the order of writing: each
    line is one append to the file, so lines do not interleave."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def append(self, line):
        with open(self.path, "a") as fh:
            fh.write(line + "\n")

    def lines(self):
        return self.path.read_text().splitlines()

    def clear(self):
        self.path.write_text("")


def test_one_strain_per_solve(tmp_path, monkeypatch):
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 4\nlevels = 3\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4 random\n[run]\nwindow = 4\n")
    in_workers(monkeypatch)
    log = CallLog(tmp_path / "calls.log")
    mine = []      # the strains of this process: a trace runs in one
    gradient = meshmod.StructuredMesh.symmetrized_gradient
    monkeypatch.setattr(meshmod.StructuredMesh, "symmetrized_gradient",
                        lambda *a: mine.append(1) or log.append("strain")
                        or gradient(*a))
    alternate = descent.alternate

    def counted(*args, **kwargs):
        before = len(mine)
        trace = alternate(*args, **kwargs)
        log.append(f"trace {len(mine) - before} {len(trace.steps)}")
        return trace
    monkeypatch.setattr(descent, "alternate", counted)
    result = pipeline.run_experiment(cfg)
    strains, traces = [], []
    for line in log.lines():
        if line == "strain":
            strains.append(1)
        else:
            n_strains, n_steps = map(int, line.split()[1:])
            traces.append((n_strains, n_steps, len(strains)))
    # every start is a phase field, so each strain is a step's
    assert len(traces) == 8
    assert all(n_strains == n_steps for n_strains, n_steps, _ in traces)
    assert len(strains) == traces[-1][2]    # none after the last step
    pipeline.emit_outputs(result, tmp_path)
    log.clear()
    pipeline.verify_run(tmp_path)
    assert len(log.lines()) == 1


def test_each_phase_field_is_assembled_once(tmp_path, monkeypatch):
    # the CI 2D smoke config: each solve's phase field is assembled once
    # and its stiffness built by the solve, on its level and each coarser
    # multigrid level; the finest analysis assembles the best phase field
    # once more and builds no stiffness, and neither does verify
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 16\nlevels = 2\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4 zero\n[run]\nwindow = 8\n")
    in_workers(monkeypatch)
    log = CallLog(tmp_path / "calls.log")
    names = ("stiffness", "assemble", "solve")
    for owner, name in zip((meshmod.StructuredMesh, subproblem, subproblem),
                           names):
        def counted(*args, _orig=getattr(owner, name), _name=name,
                    **kwargs):
            log.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    def calls():
        lines = log.lines()
        return {name: lines.count(name) for name in names}
    result = pipeline.run_experiment(cfg)
    assert calls()["stiffness"] == 10
    assert calls()["assemble"] == calls()["solve"] + 1
    pipeline.emit_outputs(result, tmp_path)
    log.clear()
    pipeline.verify_run(tmp_path)
    assert calls() == {"stiffness": 0, "assemble": 1, "solve": 0}


SCALING_CFG = """
[mesh]
dim = 2
extents = {side}
resolution = 16
levels = 2
[coefficients]
b = 2.0
C = 0.0; 0.5; 0.0
D = 0.0; -0.5; 0.0
[strategy]
seeds = laminate:4 random zero
"""


def test_alpha_scales_exactly_with_a_power_of_two_domain(tmp_path):
    # the infimum depends on the domain only through |Omega|: on a square
    # of side 2^k every length and measure scales exactly, so alpha is the
    # unit square's times 4^k bit for bit, also with node coordinates far
    # below 1e-8, and verify rebuilds every leaf exactly
    alphas = {}
    for k in (0, -24, 10):
        run_dir = tmp_path / str(k)
        result = pipeline.run_and_emit(configmod.parse_config_text(
            SCALING_CFG.format(side=2.0 ** k)), run_dir)
        alphas[k] = result.report["final"]["alpha_scheme"]
        assert pipeline.verify_run(run_dir)["leaf_residual"] == 0.0
    assert alphas[0] > 0.0
    assert alphas[-24] == alphas[0] * 4.0 ** -24
    assert alphas[10] == alphas[0] * 4.0 ** 10


def test_verify_reports_an_unsigned_zero_excess(tmp_path):
    result = pipeline.run_and_emit(configmod.parse_config_text(SYM_CFG),
                                   tmp_path)
    checks = pipeline.verify_run(tmp_path)
    # on this laminate the lower bound equals the recomputed alpha
    assert checks["alpha_recomputed"] \
        == result.report["relaxation"]["lower_bound"]["bound"]
    excess = checks["lower_bound_excess"]
    assert excess == 0.0 and math.copysign(1.0, excess) == 1.0
    # the bound itself is +0.0, so report.json holds no "-0"
    bound = result.report["relaxation"]["lower_bound"]["bound"]
    assert bound == 0.0 and math.copysign(1.0, bound) == 1.0
    assert not re.search(r"(^|[ :\[])-0(\.0)?,?$",
                         (tmp_path / "report.json").read_text(), re.M)


def test_window_mesh_mismatch_is_config_error():
    cfg = configmod.parse_config_text(
        "[mesh]\nresolution = 30\n[run]\nwindow = 8\n")
    with pytest.raises(ConfigurationError, match="window"):
        cfg.build_meshes()


def test_bad_seed_spec():
    # every spec is checked by the parser `build_seed` uses, so a spec the
    # config accepts cannot fail (or be read otherwise) later in the run
    for seeds in ("newton", "laminate-perturbed:1.2.3 zero",
                  "laminate-perturbed:e", "laminate-perturbed:-0.5",
                  "laminate-perturbed:0.1:2:3", "laminate:0", "laminate:2.5",
                  "zero:1"):
        with pytest.raises(ConfigurationError, match="line 2: .*seed spec"):
            configmod.parse_config_text(f"[strategy]\nseeds = {seeds}\n")


def test_seed_spec_defaults():
    assert [descent.parse_seed_spec(s) for s in (
        "zero", "laminate", "laminate:4", "laminate-perturbed",
        "laminate-perturbed:0.1", "laminate-perturbed:1:4")] == [
        ("zero", None, None), ("laminate", 0.0, 2), ("laminate", 0.0, 4),
        ("laminate-perturbed", 0.05, 2), ("laminate-perturbed", 0.1, 2),
        ("laminate-perturbed", 1.0, 4)]


def test_cli_solve_verify_report(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(SYM_CFG)
    assert cli.main(["solve", str(cfg_path),
                     "--outdir", str(out_dir)]) == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "u_finest.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert capsys.readouterr().out.splitlines() == [
        f"alpha_scheme = {report['final']['alpha_scheme']!r}",
        f"theta_coeff1 = {report['relaxation']['theta_coeff1']!r}",
        f"outputs in   {out_dir}"]
    assert cli.main(["verify", str(out_dir)]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out_dir)]) == 0
    lines = dict(line.split(" = ")
                 for line in capsys.readouterr().out.splitlines())
    assert list(lines) == ["alpha_scheme", "duality_gap", "ker_residual",
                           "d", "denominator", "theta_coeff1",
                           "alpha_formula_coeff1", "lower_bound",
                           "stuck_suspected", "ym_energy_residual",
                           "dirac_all_passed"]
    # the duality figures are the finest best trace's last step's
    step = report["levels"][-1]["traces"][0]["steps"][-1]
    assert lines["duality_gap"] == repr(step["gap"])
    assert lines["ker_residual"] == repr(step["ker_residual"])


@pytest.mark.parametrize("args", [["ym"], ["report", "--full"],
                                  ["verify", "--tol", "inf"]],
                         ids=["ym", "report-full", "verify-tol"])
def test_cli_verify_is_the_one_audit_of_a_run(tmp_path, capsys, args):
    # `verify` rebuilds report.json from the dumps at one tolerance, and
    # report.json is the full report: no other path restates either
    out_dir = _solved_run(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([args[0], str(out_dir), *args[1:]])
    assert exc.value.code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[mesh]\nvim = 2\n")
    assert cli.main(["solve", str(bad)]) == 2
    assert cli.main(["solve", str(tmp_path / "missing.cfg")]) == 2
    bad.write_text("[strategy]\nseeds = laminate-perturbed:1.2.3\n")
    assert cli.main(["solve", str(bad)]) == 2
    # a number that is not finite, in the text or from an expression, is
    # rejected as such, and NumPy does not warn about it first
    for text in ("[mesh]\nextents = nan\n", "[mesh]\nextents = inf\n",
                 "[coefficients]\na = sqrt(x - 2)\n",
                 "[coefficients]\nb = exp(1000)\n"):
        bad.write_text(text + "[strategy]\nseeds = zero\n")
        capsys.readouterr()
        assert cli.main(["solve", str(bad), "--outdir",
                         str(tmp_path / "out")]) == 2, text
        assert "finite" in capsys.readouterr().err, text


@pytest.mark.parametrize("dim, line", [
    (1, "b = minimum(x, 0.5, x)"), (2, "a = 1.0 + 0*sign(x, x)"),
    (1, "b = where(x)"), (1, "b = where")])
def test_each_function_takes_its_own_number_of_arguments(tmp_path, capsys,
                                                         dim, line):
    # NumPy reads a ufunc's argument after its operands as `out`: a call
    # with one argument too many, or too few, or a function name used as a
    # value, is a configuration error, and the mesh's centres are unchanged
    text = (f"[mesh]\ndim = {dim}\nresolution = 16\n[coefficients]\n"
            f"{line}\n[strategy]\nseeds = zero\n")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert cli.main(["solve", str(path), "--outdir",
                     str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err
    cfg = configmod.parse_config_text(text)
    mesh = cfg.build_finest_mesh()
    centers = mesh.centers.copy()
    with pytest.raises(ConfigurationError):
        cfg.build_coeffs(mesh)
    assert mesh.centers.tobytes() == centers.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_where_guards_a_branch_that_is_not_finite():
    # sqrt(x - 0.5) is NaN for x < 0.5, where the other branch is taken
    cfg = configmod.parse_config_text(
        "[mesh]\nresolution = 8\n"
        "[coefficients]\nb = 1.0 + where(x > 0.5, sqrt(x - 0.5), 0.0)\n")
    mesh = cfg.build_finest_mesh()
    x = mesh.centers[:, 0]
    assert np.array_equal(cfg.build_coeffs(mesh).b, 1.0 + np.where(
        x > 0.5, np.sqrt(np.abs(x - 0.5)), 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_run_whose_numbers_overflow_writes_no_report(tmp_path, capsys,
                                                       monkeypatch):
    # moduli of 1e300 pass the coefficient checks but overflow the first
    # step's gap: exit 2 from that step, naming it, without a NumPy
    # warning, before a second solve and before anything is written
    solve, calls = subproblem.solve, []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(subproblem, "solve", counting)
    path = tmp_path / "overflow.cfg"
    path.write_text(SYM_CFG.replace("C = 1.0\nD = -1.0",
                                    "a = 1e300\nb = 1e300\nC = 1.0\n"
                                    "D = -1.0"))
    out_dir = tmp_path / "out"
    assert cli.main(["solve", str(path), "--outdir", str(out_dir)]) == 2
    assert ("the run's numbers overflow float64: level 0, seed "
            "'laminate:4', step 0: gap is inf") in capsys.readouterr().err
    assert len(calls) == 1
    assert list(out_dir.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coefficients", [
    "a = 1e300\nb = 1e-12\nC = 0.0\nD = 1e-100",
    "a = 1e-12\nb = 1e300\nC = 1e-150\nD = -1e-150",
], ids=["a-1e300", "b-1e300"])
def test_moduli_1e312_apart_solve_and_verify_without_a_warning(
        tmp_path, capfd, coefficients):
    # a (C + D) squared overflows at a = 1e300, and the lower bound's
    # tied solve can diverge at either contrast: the run exits 0 and
    # warns nowhere (LAPACK prints DLASCL to the process's stderr, not
    # as a Python warning, when lstsq is handed an inf)
    path = tmp_path / "extreme.cfg"
    path.write_text("[mesh]\ndim = 1\nresolution = 32\n[coefficients]\n"
                    f"{coefficients}\n[strategy]\nseeds = laminate:4 zero\n")
    out_dir = tmp_path / "out"
    assert cli.main(["solve", str(path), "--outdir", str(out_dir)]) == 0
    assert cli.main(["verify", str(out_dir)]) == 0
    out, err = capfd.readouterr()
    assert "leaf_residual = 0.0" in out.splitlines()
    assert "Warning" not in err and "DLASCL" not in err
    report = json.loads((out_dir / "report.json").read_text())
    assert report["relaxation"]["lower_bound"]["bound"] \
        <= report["final"]["alpha_scheme"]


@pytest.mark.filterwarnings("error")
def test_cg_stops_at_a_residual_that_is_not_finite():
    # the period-2 laminate at moduli 1e312 apart: LU of the operator
    # (entries 3.2e-11 to 3.2e301) returns NaN on the first
    # preconditioner call, and CG stops there, not at its iteration cap
    cfg = configmod.parse_config_text(
        "[mesh]\ndim = 1\nresolution = 32\n[coefficients]\n"
        "a = 1e-12\nb = 1e300\nC = 1e-150\nD = -1e-150\n"
        "[strategy]\nseeds = laminate zero\n")
    with pytest.raises(SolverError) as exc:
        pipeline.run_experiment(cfg)
    assert exc.value.iterations <= 1
    assert str(exc.value).startswith("level 0, seed 'laminate', step 0: ")
    assert str(exc.value).endswith("the residual is not finite")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wells_whose_squares_overflow_are_rejected_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # |C|^2 of 1e400: exit 2 from the coefficients, silently, before the
    # descent solves anything
    def solve(*args, **kwargs):
        raise AssertionError("the run reached a solve")
    monkeypatch.setattr(subproblem, "solve", solve)
    path = tmp_path / "overflow.cfg"
    path.write_text(SYM_CFG.replace("C = 1.0\nD = -1.0",
                                    "C = 1e200\nD = -1e200"))
    out_dir = tmp_path / "out"
    assert cli.main(["solve", str(path), "--outdir", str(out_dir)]) == 2
    assert "and so must |C|^2, |D|^2, |C - D|^2" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_report_json_is_never_written_with_nan(tmp_path):
    result = pipeline.run_experiment(configmod.parse_config_text(SYM_CFG))
    with pytest.raises(ValueError):
        pipeline.emit_outputs(
            dataclasses.replace(result, report={"alpha": math.nan}),
            tmp_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim, extents", [(1, "1e-320"), (2, "1e-200"),
                                          (2, "1e200")])
def test_extents_float64_cannot_mesh_are_a_config_error(tmp_path, capsys,
                                                        dim, extents):
    # 1e-320 over 32 cells gives infinite gradients; 1e-200 and 1e200
    # in 2D give element measures of 0 and inf
    path = tmp_path / "tiny.cfg"
    path.write_text(f"[mesh]\ndim = {dim}\nresolution = 32\n"
                    f"extents = {extents}\n[strategy]\nseeds = zero\n")
    assert cli.main(["solve", str(path), "--outdir",
                     str(tmp_path / "out")]) == 2
    assert ("element measures or strain gradients that float64 cannot "
            "hold") in capsys.readouterr().err


@pytest.mark.parametrize("build, message", [
    (lambda mesh: configmod.parse_config_text(
        "[mesh]\nresolution = 10\n").build_finest_mesh(),
     "window 8 does not divide the finest element counts (10,)"),
    (lambda mesh: meshmod.build_windows(mesh, 8),
     "window size 8 does not divide element counts (10,)"),
    (lambda mesh: descent.laminate_seed(mesh, make_coeffs(mesh), 4),
     "laminate period 4 does not divide the element counts (10,)")],
    ids=["config", "windows", "laminate"])
def test_shape_messages_print_plain_ints(build, message):
    with pytest.raises(ConfigurationError) as exc:
        build(make_mesh_1d(10))
    assert str(exc.value) == message


def test_cli_solver_failure_names_level_seed_and_step(tmp_path, capsys,
                                                     monkeypatch):
    # the first solve on level 1 fails: exit code 3, and the message says
    # where, after the solver's own words
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SYM_CFG.replace("resolution = 32",
                                        "resolution = 32\nlevels = 2"))
    solve = subproblem.solve

    def failing(problem, **kw):
        if problem.mesh.n_elem == 64:
            raise SolverError("conjugate gradients did not reach tol=1e-10",
                              residual=1.0, iterations=7)
        return solve(problem, **kw)

    monkeypatch.setattr(subproblem, "solve", failing)
    assert cli.main(["solve", str(cfg_path), "--outdir",
                     str(tmp_path / "out")]) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert ("solver failure: level 1, seed 'laminate:4', step 0: "
            "conjugate gradients did not reach tol=1e-10") in err


def _solved_run(tmp_path, text=SYM_CFG):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(text)
    assert cli.main(["solve", str(cfg_path),
                     "--outdir", str(out_dir)]) == 0
    return out_dir


def _verify_tampered(tmp_path, tamper, text=SYM_CFG):
    """Exit code of `verify` after `tamper` edits a solved report."""
    out_dir = _solved_run(tmp_path, text)
    report_path = out_dir / "report.json"
    report = json.loads(report_path.read_text())
    tamper(report)
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return cli.main(["verify", str(out_dir)])


def test_cli_verify_detects_tampering(tmp_path, capsys):
    def tamper(report):
        report["final"]["alpha_scheme"] = 123.0
    assert _verify_tampered(tmp_path, tamper) == 4


def test_cli_verify_detects_tampered_lower_bound(tmp_path, capsys):
    def tamper(report):
        report["relaxation"]["lower_bound"]["bound"] = 123.0
    assert _verify_tampered(tmp_path, tamper) == 4
    assert "relaxation.lower_bound.bound" in capsys.readouterr().err


# pairing leaves that a run of one level does not have or whose first row
# is the finest level's
COARSER_LEAVES = ("pairing_diagnostic.residual",
                  "pairing_diagnostic.non_decreasing_flags")


# (path, new value or edit, the paths the message names, space-separated):
# list entries are named by index; an index -1 in `path` is the last entry
TAMPERED_LEAVES = [
    ("final.duality.orthogonality_residual", 1.0,
     "final.duality.orthogonality_residual"),
    ("final.algebraic_representations.energy_identity_residual", 1.0,
     "final.algebraic_representations.energy_identity_residual"),
    ("young_measure.energy.residual", 1.0, "young_measure.energy.residual"),
    ("limits.n_windows", 5, "limits.n_windows"),
    ("relaxation.theta_coeff1_in_range", False,
     "relaxation.theta_coeff1_in_range"),
    ("young_measure.dirac.windows", lambda windows: windows + [0],
     "len(young_measure.dirac.windows)"),
    ("levels[-1].traces[0].fixed_point", False,
     "levels[0].traces[0].fixed_point"),
    ("relaxation.theta_by_level", lambda thetas: thetas[:-1] + [0.5],
     "relaxation.theta_by_level[0]"),
    ("levels[-1].best_alpha", 123.0, "levels[0].best_alpha"),
    ("levels[-1].traces[0].final_alpha", 123.0,
     "levels[0].traces[0].final_alpha"),
    ("levels[-1].traces[0].steps[-1].gap", 123.0,
     "levels[0].traces[0].steps[0].gap"),
    ("levels[-1].traces[0].steps[-1].ker_residual", 1.0,
     "levels[0].traces[0].steps[0].ker_residual"),
    ("pairing_diagnostic.limit", lambda lim: [lim[0] + 1.0] + lim[1:],
     "pairing_diagnostic.limit[0]"),
    ("pairing_diagnostic.value",
     lambda rows: rows[:-1] + [[v + 1.0 for v in rows[-1]]],
     "pairing_diagnostic.value[0][0] pairing_diagnostic.value[0][1] "
     "pairing_diagnostic.value[0][2]"),
    # on a run of two levels: its coarser residual row and a flag
    ("pairing_diagnostic.residual",
     lambda rows: [[rows[0][0] + 1.0] + rows[0][1:]] + rows[1:],
     "pairing_diagnostic.residual[0][0]"),
    ("pairing_diagnostic.non_decreasing_flags",
     lambda flags: [not flags[0]] + flags[1:],
     "pairing_diagnostic.non_decreasing_flags[0]"),
]


@pytest.mark.parametrize("path, new, named", TAMPERED_LEAVES, ids=[
    f"{path}-{getattr(new, '__name__', new)}"
    for path, new, _ in TAMPERED_LEAVES])
def test_cli_verify_names_the_tampered_leaf(tmp_path, capsys, path, new,
                                            named):
    def tamper(report):
        *keys, last = path.split(".")
        for key in keys:
            name, _, index = key.rstrip("]").partition("[")
            report = report[name]
            if index:
                report = report[int(index) % len(report)]
        report[last] = new(report[last]) if callable(new) else new
    text = (SYM_CFG.replace("resolution = 32", "resolution = 32\nlevels = 2")
            if path in COARSER_LEAVES else SYM_CFG)
    assert _verify_tampered(tmp_path, tamper, text) == 4
    err = capsys.readouterr().err
    assert re.findall(r"([^\s;:]+): reported", err) == named.split()


@pytest.mark.parametrize("text, message", [
    ("{not json", "report.json is not JSON"),
    ('{"final": {}}', "final.alpha_scheme"),
    ("\xff\xfe", "report.json: 'utf-8' codec can't decode"),
    (None, "report.json: [Errno 2] No such file"),
])
def test_cli_verify_rejects_an_unreadable_report(tmp_path, capsys, text,
                                                 message):
    # None deletes the file; the text is written byte for byte
    out_dir = _solved_run(tmp_path)
    path = out_dir / "report.json"
    if text is None:
        path.unlink()
    else:
        path.write_text(text, encoding="latin-1")
    capsys.readouterr()
    assert cli.main(["verify", str(out_dir)]) == cli.EXIT_VERIFY
    assert cli.main(["report", str(out_dir)]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert err.count(message) == 2 and out == ""


def _drop_final(report):
    del report["final"]


def _untyped_alpha(report):
    report["final"]["alpha_scheme"] = None


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("tamper, message", [
    (_drop_final, "report.json has no final.alpha_scheme"),
    (_untyped_alpha, "report.json has None at final.alpha_scheme"),
], ids=["no-final", "alpha-none"])
def test_cli_commands_name_a_missing_report_leaf(tmp_path, capsys, command,
                                                 tamper, message):
    # every command that reads report.json exits 4 and names the path
    out_dir = _solved_run(tmp_path)
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    tamper(report)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main([command, str(out_dir)]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_cli_report_names_a_best_trace_without_steps(tmp_path, capsys):
    # report reads the duality figures from the finest best trace's last
    # step, so a trace with no steps exits 4 and names that path
    out_dir = _solved_run(tmp_path)
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    report["levels"][-1]["traces"][0]["steps"] = []
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["report", str(out_dir)]) == cli.EXIT_VERIFY
    out, err = capsys.readouterr()
    assert "report.json has no levels[-1].traces[0].steps[-1].gap" in err
    assert out == ""


def test_cli_verify_names_a_missing_leaf(tmp_path, capsys):
    def tamper(report):
        del report["relaxation"]["d"]
    assert _verify_tampered(tmp_path, tamper) == 4
    assert "relaxation.d: reported nothing" in capsys.readouterr().err


def _rename_a_column(out_dir):
    path = out_dir / "fields_finest.csv"
    header, rest = path.read_text().split("\n", 1)
    path.write_text(header.replace("p_0", "q_0") + "\n" + rest)


def _drop_the_last_row(out_dir):
    path = out_dir / "u_finest.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _delete_the_dump(out_dir):
    (out_dir / "u_finest.csv").unlink()


def _set_a_cell(name, column, value):
    def edit(out_dir):
        path = out_dir / name
        header, first, rest = path.read_text().split("\n", 2)
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        path.write_text("\n".join([header, ",".join(cells), rest]))
    return edit


def _keep_the_header(out_dir):
    path = out_dir / "u_finest.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("edit, message", [
    (_rename_a_column, "fields_finest.csv: no column p_0"),
    (_drop_the_last_row, "u_finest.csv: displacement shape (32, 1) does "
                         "not conform to mesh (33, 1)"),
    (_delete_the_dump, "u_finest.csv: [Errno 2] No such file"),
    (_set_a_cell("fields_finest.csv", "chi_a", "0.7"),
     "fields_finest.csv: chi_a is not 0 or 1"),
    (_keep_the_header, "u_finest.csv: displacement shape (0, 1) does "
                       "not conform to mesh (33, 1)"),
    (_set_a_cell("u_finest.csv", "u_0", "inf"),
     "u_finest.csv: a value is not finite"),
    (_set_a_cell("fields_finest.csv", "p_0", "nan"),
     "fields_finest.csv: a value is not finite"),
], ids=["no-column", "other-shape", "missing", "not-a-phase", "no-rows",
        "infinite-u", "nan-p"])
def test_cli_verify_rejects_a_dump(tmp_path, capsys, edit, message,
                                   command):
    # a dump the run cannot be rebuilt from exits 4 and names the file,
    # before any analysis and without a warning
    out_dir = _solved_run(tmp_path)
    edit(out_dir)
    capsys.readouterr()
    assert cli.main([command, str(out_dir)]) == cli.EXIT_VERIFY
    assert message in capsys.readouterr().err


def test_cli_verify_without_a_config_is_a_configuration_error(tmp_path,
                                                              capsys):
    out_dir = _solved_run(tmp_path)
    (out_dir / "config.txt").unlink()
    assert cli.main(["verify", str(out_dir)]) == cli.EXIT_CONFIG
    assert "config.txt" in capsys.readouterr().err


def test_cli_oracle_json(capsys):
    assert cli.main(["oracle", "a=1", "c=1", "b=1", "d=-1",
                     "volume=2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f_star_star_at_0"] == 0.0
    assert out["exact_alpha"] == 0.0
    assert any(p["kind"] == "affine" for p in out["pieces"])
    assert cli.main(["oracle", "q=1"]) == 2
    assert cli.main(["oracle", "a=nan"]) == 2
    assert cli.main(["oracle", "b=inf"]) == 2
    assert cli.main(["oracle", "volume=-1"]) == 2
    assert cli.main(["oracle", "volume=0"]) == 2
    # a repeated key is named, not overridden
    capsys.readouterr()
    assert cli.main(["oracle", "a=1", "a=2", "c=1", "d=-1"]) == 2
    assert "'a' is set twice" in capsys.readouterr().err
    # the crossing slope 2ab(c - d)/(b - a) is -0.0 here
    capsys.readouterr()
    assert cli.main(["oracle", "a=2", "c=0", "b=1", "d=0"]) == 0
    assert "-0.0" not in capsys.readouterr().out


def test_cli_solve_checks_the_outdir_before_the_run(tmp_path, monkeypatch):
    def fail(cfg):
        raise AssertionError("the run started")
    monkeypatch.setattr(pipeline, "run_experiment", fail)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SYM_CFG)
    assert cli.main(["solve", str(cfg_path), "--outdir",
                     str(cfg_path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("cfg_text, headers", [
    (SYM_CFG, ["x,u_0", "x_center,chi_a,eps_0,p_0"]),
    ("[mesh]\ndim = 2\nresolution = 8\n"
     "[strategy]\nseeds = random random zero\n",
     ["x,y,u_0,u_1",
      "x_center,y_center,chi_a,eps_0,eps_1,eps_2,p_0,p_1,p_2"]),
], ids=["1d", "2d"])
def test_run_directory_holds_five_files(tmp_path, cfg_text, headers):
    # the descent traces and the per-level thetas are in report.json
    # alone, verify rebuilds the window means from the two dumps, and no
    # CSV has a column that repeats the row number
    result = pipeline.run_experiment(configmod.parse_config_text(cfg_text))
    written = pipeline.emit_outputs(result, tmp_path)
    csvs = ["u_finest.csv", "fields_finest.csv"]
    assert written == ["config.txt", "report.json", "timing.txt"] + csvs
    assert sorted(os.listdir(tmp_path)) == sorted(written)
    assert [(tmp_path / name).read_bytes().split(b"\r\n")[0].decode()
            for name in csvs] == headers


def test_report_states_each_number_once():
    # each dropped leaf restated another leaf or its own position
    result = pipeline.run_experiment(configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 8\nlevels = 2\n"
        "[coefficients]\nC = 0.0; 0.5; 0.0\nD = 0.0; -0.5; 0.0\n"
        "[strategy]\nseeds = laminate:4 zero\n"))
    report = result.report
    assert "outdir" not in report["config"]["run"]
    for block in report["levels"]:
        assert set(block) == {"n_elem", "best_alpha", "traces"}
        for trace in block["traces"]:
            # final_alpha and budget_exhausted restate steps[-1].alpha and
            # not fixed_point, but the benchmark's per-layer counts
            # (bench/run.py) read them
            assert set(trace) == {"seed", "fixed_point", "budget_exhausted",
                                  "final_alpha", "steps"}
            for step in trace["steps"]:
                assert "level" not in step and "step" not in step
    # a trace holds its fixed_point flag, the bound's distance to alpha is
    # final.alpha_scheme - lower_bound.bound, and the purity set is
    # w0_plus and w0_minus; the finest state's gap and kernel residual are
    # its last step's, and the paper's third representation is the mean
    # of the two
    assert "fixed_point" not in report["final"]
    assert set(report["final"]["duality"]) == {"orthogonality_residual"}
    assert set(report["relaxation"]["representations_coefficient_1"]) \
        == {"rep_a", "rep_b"}
    assert "lower_bound_gap" not in report["relaxation"]
    assert list(report["limits"]["partition"]) == [
        "omega0_measure", "omega0_windows", "w0_plus_windows",
        "w0_minus_windows"]
    assert "alpha_scheme" not in report["relaxation"]
    assert "alpha_scheme" not in report["young_measure"]["energy"]
    assert isinstance(report["relaxation"]["I_term"], float)
    pairing = report["pairing_diagnostic"]
    assert list(pairing) == ["limit", "value", "residual",
                             "non_decreasing_flags"]
    n_test = meshmod.default_test_functions(result.meshes[-1]).n_test
    assert np.shape(pairing["limit"]) == (n_test,)
    assert np.shape(pairing["value"]) == np.shape(pairing["residual"]) \
        == (2, n_test)
    assert len(pairing["non_decreasing_flags"]) == n_test


def test_report_does_not_depend_on_outdir(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SYM_CFG)
    blobs = []
    for out_dir in (tmp_path / "a", tmp_path / "b" / "elsewhere"):
        assert cli.main(["solve", str(cfg_path),
                         "--outdir", str(out_dir)]) == 0
        blobs.append((out_dir / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_report_round_trip_alphas(tmp_path):
    cfg = configmod.parse_config_text(SYM_CFG)
    result = pipeline.run_experiment(cfg)
    pipeline.emit_outputs(result, tmp_path)
    checks = pipeline.verify_run(tmp_path)
    assert checks["alpha_residual"] <= 1e-10


def test_timing_file_size_does_not_depend_on_the_times(tmp_path):
    result = pipeline.run_experiment(configmod.parse_config_text(SYM_CFG))
    sizes = []
    for i, v in enumerate((9.3, 10.1, 0.0, 12345.678)):
        timed = dataclasses.replace(result, timings=dict.fromkeys(
            result.timings, v))
        pipeline.emit_outputs(timed, tmp_path / str(i))
        text = (tmp_path / str(i) / "timing.txt").read_text()
        assert [float(line.split("=")[1]) for line in text.splitlines()] \
            == [v] * len(result.timings)
        sizes.append(len(text))
    assert len(set(sizes)) == 1


def test_the_package_does_not_import_scipy_optimize():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, doublewell, doublewell.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
