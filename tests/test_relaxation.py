"""Theta estimation, relaxation formulas, inequality chain, lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from doublewell import config as configmod, descent, energy, \
    limits as limitsmod, mesh as meshmod, oracles, pipeline, relaxation

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d

moduli = st.floats(0.2, 5.0)
wells = st.floats(-3.0, 3.0)
NELDER_MEAD = {"method": "Nelder-Mead",
               "options": {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}}


def analysis(C=1.0, D=-1.0, seed_kind="laminate", n=64, period=4):
    mesh = make_mesh_1d(n)
    coeffs = make_coeffs(mesh, C=C, D=D)
    if seed_kind == "laminate":
        _, init = descent.laminate_seed(mesh, coeffs, period)
    else:
        init = descent.build_seed(mesh, coeffs, "zero", None)
    trace = descent.alternate(mesh, coeffs, init)
    windows = meshmod.build_windows(mesh, 8)
    bundle = limitsmod.estimate_limits(mesh, windows, trace.eps, trace.p,
                                       trace.chi)
    d = limitsmod.gap_d(mesh, coeffs, bundle)
    return mesh, coeffs, trace, bundle, d


def test_theta_symmetric_laminate():
    mesh, coeffs, trace, bundle, d = analysis()
    est = relaxation.gap_theta(mesh, coeffs, bundle)
    assert est["d"] == d
    assert np.isclose(est["denominator"], 1.0)
    assert np.isclose(est["theta_coeff1"], 1.0, atol=1e-10)
    assert est["theta_coeff1_in_range"] and not est["theta_zero_branch"]


def test_theta_zero_branch_for_convex_case():
    mesh, coeffs, trace, bundle, d = analysis(C=1.0, D=1.0,
                                              seed_kind="zero")
    est = relaxation.gap_theta(mesh, coeffs, bundle)
    assert est["theta_zero_branch"]
    assert est["theta_coeff1"] == 0.0


def test_relaxation_block_leaves_in_report_order():
    # theta is one number: d / den, its zero branch and its range test
    mesh, coeffs, trace, bundle, d = analysis()
    out = relaxation.relaxation_section(
        mesh, coeffs, bundle, relaxation.gap_theta(mesh, coeffs, bundle),
        trace.alpha)
    assert list(out) == [
        "d", "denominator", "theta_coeff1", "theta_zero_branch",
        "theta_coeff1_in_range", "I_term", "inequality_chain",
        "lower_bound", "alpha_formula_coefficient_1",
        "alpha_residual_coefficient_1", "representations_coefficient_1",
        "stuck_suspected"]


def test_formula_matches_scheme_on_laminates():
    for C, D in ((1.0, -1.0), (1.0, -3.0)):
        mesh, coeffs, trace, bundle, d = analysis(C=C, D=D)
        theta = relaxation.gap_theta(mesh, coeffs, bundle)
        assert theta["theta_coeff1"] == d / theta["denominator"]
        pieces = relaxation.relaxation_pieces(mesh, coeffs, bundle)
        val = relaxation.eval_limit_formula(pieces, theta)
        assert abs(val - trace.alpha) <= 1e-10
        reps = relaxation.eval_representations(pieces, theta)
        for v in reps.values():
            assert abs(v - trace.alpha) <= 1e-10


def test_formula_matches_scheme_on_convex_case():
    mesh, coeffs, trace, bundle, d = analysis(C=1.0, D=1.0,
                                              seed_kind="zero")
    pieces = relaxation.relaxation_pieces(mesh, coeffs, bundle)
    theta = relaxation.gap_theta(mesh, coeffs, bundle)
    assert theta["theta_coeff1"] == 0.0
    val = relaxation.eval_limit_formula(pieces, theta)
    assert abs(val - 0.5) <= 1e-10
    reps = relaxation.eval_representations(pieces, theta)
    for v in reps.values():
        assert abs(v - 0.5) <= 1e-10


def test_eval_I_two_region_quadrature():
    # piecewise a != b off Omega_0 with zero fields: I reduces to the
    # constant term, integrable directly
    mesh = make_mesh_1d(64)
    b = np.where(mesh.centers[:, 0] < 0.5, 1.0, 2.0)
    coeffs = energy.CoefficientSet(mesh, 1.0, b, [1.0], [1.0])
    chi = descent.PhaseField.from_a_indicator(np.ones(mesh.n_elem, bool))
    eps = np.zeros((mesh.n_elem, 1))
    windows = meshmod.build_windows(mesh, 8)
    bundle = limitsmod.estimate_limits(
        mesh, windows, eps, np.zeros((mesh.n_elem, 1)), chi)
    out = relaxation.relaxation_pieces(mesh, coeffs, bundle)["I"]
    # psi = -1, C = D = 1:  density = ab(|C|^2-|D|^2)/(2(b-a))
    #                                + ab|C-D|^2/(2(b-a)) = 0 ... plus the
    # p and eps terms vanish; direct quadrature over [0.5, 1]:
    guard = ~coeffs.omega0
    dens = np.zeros(mesh.n_elem)
    assert np.isclose(out["value"],
                      float((mesh.measures * dens * guard).sum()))
    assert out["excluded_measure"] == 0.0


def test_inequality_chain_half_variant_holds():
    mesh, coeffs, trace, bundle, d = analysis()
    chain = relaxation.inequality_chain(
        relaxation.relaxation_pieces(mesh, coeffs, bundle),
        trace.alpha)
    assert chain["half_violation"] <= 1e-10


@st.composite
def small_configs(draw):
    """A 1D or 2D config of 1-2 levels: equal or distinct moduli, any
    wells, and laminate, zero and random seeds."""
    dim = draw(st.sampled_from([1, 2]))
    a = draw(moduli)
    b = draw(st.one_of(st.just(a), moduli))
    C, D = (" ; ".join(repr(w) for w in draw(
        st.lists(wells, min_size=2 * dim - 1, max_size=2 * dim - 1)))
        for _ in range(2))
    seeds = draw(st.lists(st.sampled_from(["laminate:4", "laminate", "zero",
                                           "random"]),
                          min_size=1, max_size=3, unique=True))
    return configmod.parse_config_text(
        f"[mesh]\ndim = {dim}\nresolution = {16 if dim == 1 else 4}\n"
        f"levels = {draw(st.integers(1, 2))}\n"
        f"[coefficients]\na = {a!r}\nb = {b!r}\nC = {C}\nD = {D}\n"
        f"[strategy]\nseeds = {' '.join(seeds)}\n"
        f"[run]\nwindow = 4\nseed = {draw(st.integers(0, 3))}\n")


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs())
def test_half_inequality_chain_holds_for_constant_coefficients(cfg):
    report = pipeline.run_experiment(cfg).report
    alpha = report["final"]["alpha_scheme"]
    chain = report["relaxation"]["inequality_chain"]
    assert chain["half_violation"] <= 1e-10 * (1.0 + abs(alpha))
    # the same runs hold the invariants of criteria 10, 4 and 1 at their
    # tolerances: lower bound <= alpha, monotone descent, zero duality gap
    assert report["relaxation"]["lower_bound"]["bound"] <= alpha + 1e-8
    for level in report["levels"]:
        for trace in level["traces"]:
            alphas = [s["alpha"] for s in trace["steps"]]
            assert all(b <= a + 1e-10 for a, b in zip(alphas, alphas[1:]))
            for s in trace["steps"]:
                assert abs(s["gap"]) <= 1e-8 * (1.0 + abs(s["alpha"]))


def test_half_inequality_chain_misses_by_the_formula_residual():
    # b = 3 + x varies inside every window and a != b everywhere: the
    # outer members vanish, the middle one is alpha less the relaxation
    # formula, and the window means miss alpha by O(h).  The chain is a
    # statement about limits, so no run is held to it at 1e-10.
    report = pipeline.run_experiment(configmod.parse_config_text(
        "[mesh]\ndim = 2\nresolution = 8\nlevels = 2\n"
        "[coefficients]\nb = 3.0 + x\nC = 0.2; 0.5; -0.1\n"
        "D = 0.0; -0.5; 0.3\n[strategy]\nseeds = laminate:4 zero\n")).report
    relax = report["relaxation"]
    chain = relax["inequality_chain"]
    assert chain["left"] == chain["right"] == 0.0
    assert chain["half_violation"] > 1e-4
    assert abs(chain["half_violation"]
               - relax["alpha_residual_coefficient_1"]) <= 1e-15


def test_lower_bound_symmetric_and_convex():
    mesh = make_mesh_1d(32)
    sym = make_coeffs(mesh, C=1.0, D=-1.0)
    out = relaxation.dual_lower_bound(mesh, sym)
    assert abs(out["bound"]) <= 1e-10          # exact infimum is 0
    conv = make_coeffs(mesh, C=1.0, D=1.0)
    out = relaxation.dual_lower_bound(mesh, conv)
    assert abs(out["bound"] - 0.5) <= 1e-8     # bound is tight here


@settings(max_examples=60, deadline=None)
@given(a=moduli, b=moduli, C=wells, D=wells)
def test_lower_bound_is_exact_for_constant_1d(a, b, C, D):
    mesh = make_mesh_1d(16)
    coeffs = make_coeffs(mesh, a=a, b=b, C=C, D=D)
    alpha = oracles.exact_alpha_1d(coeffs)
    out = relaxation.dual_lower_bound(mesh, coeffs)
    assert abs(out["bound"] - alpha) <= 1e-10 * (1.0 + abs(alpha))


@st.composite
def piecewise_coefficients(draw):
    """2-3 coefficient tuples scattered over a 1D or 2D mesh; later
    tuples may share some of a, b, C, D with the first one."""
    mesh = draw(st.sampled_from([make_mesh_1d(16), make_mesh_2d(4)]))
    n = mesh.n_comp
    matrices = st.lists(wells, min_size=n, max_size=n)
    first = draw(st.tuples(moduli, moduli, matrices, matrices))
    tuples = [first] + [
        tuple(draw(st.sampled_from([old, new])) for old, new in
              zip(first, draw(st.tuples(moduli, moduli, matrices,
                                        matrices))))
        for _ in range(draw(st.integers(1, 2)))]
    k = len(tuples)
    pick = np.array(draw(st.lists(st.integers(0, k - 1),
                                  min_size=mesh.n_elem,
                                  max_size=mesh.n_elem)))
    a, b, C, D = (np.array([t[j] for t in tuples])[pick] for j in range(4))
    return mesh, energy.CoefficientSet(mesh, a, b, C, D)


def per_element_bound(mesh, coeffs, q):
    """The bound at q summed element by element, and the sum of |terms|."""
    fw = mesh.frob_w
    q = np.asarray(q)
    q2 = ((q * q) * fw).sum()
    qC = (q[None, :] * coeffs.C * fw).sum(axis=1)
    qD = (q[None, :] * coeffs.D * fw).sum(axis=1)
    dens = np.maximum(q2 / (2.0 * coeffs.a) - qC, q2 / (2.0 * coeffs.b) - qD)
    return (-float((mesh.measures * dens).sum()),
            float((mesh.measures * np.abs(dens)).sum()))


def bound_rows(a, b, C, D, W, fw):
    """The bound at each row of Q for coefficient tuples (a, b, C, D) of
    measure W."""
    def bound(Q):
        q2 = ((Q * Q) @ fw)[:, None]
        dens = np.maximum(q2 / (2.0 * a) - Q @ (C * fw).T,
                          q2 / (2.0 * b) - Q @ (D * fw).T)
        return 0.0 - dens @ W
    return bound


def grid_scipy_bound(mesh, coeffs):
    """The bound searched, not solved: its best point on a grid of 9 points
    per component on [-2 s, 2 s] (s the largest of |aC|, |bD| and 1),
    polished by SciPy's Nelder-Mead and kept only if that improves it."""
    a, b, C, D, W = relaxation._coefficient_tuples(mesh, coeffs)
    bound = bound_rows(a, b, C, D, W, mesh.frob_w)
    scale = max(float(np.max(a * np.sqrt(mesh.frob_norm2(C)))),
                float(np.max(b * np.sqrt(mesh.frob_norm2(D)))), 1.0)
    axis = np.linspace(-2.0 * scale, 2.0 * scale, 9)
    grids = np.meshgrid(*[axis] * mesh.n_comp, indexing="ij")
    cands = np.stack([g.ravel() for g in grids], axis=1)
    vals = bound(cands)
    q, val = cands[np.argmax(vals)], vals.max()
    res = optimize.minimize(lambda x: -bound(x[None, :])[0], q,
                            **NELDER_MEAD)
    if -res.fun > val:
        q, val = res.x, -res.fun
    return {"bound": float(val), "q": [float(v) for v in q]}


def solver_unit(mesh, coeffs):
    """The unit dual_lower_bound solves in: the product of the square of
    the power of two at or below the largest |well|, the one at or below
    the total measure, and the one midway between the least and the
    largest modulus."""
    a, b, C, D, W = relaxation._coefficient_tuples(mesh, coeffs)
    ew, em = (np.frexp(v)[1] - 1 for v in (
        max(np.abs(C).max(), np.abs(D).max()), W.sum()))
    ea = (np.frexp(min(a.min(), b.min()))[1]
          + np.frexp(max(a.max(), b.max()))[1]) // 2
    return np.ldexp(1.0, 2 * ew + ea + em)


def assert_certified(mesh, coeffs, out):
    """The solved bound is no lower than the searched one, and its
    certificate closes to round-off of the solver's unit."""
    B = out["bound"]
    assert B >= grid_scipy_bound(mesh, coeffs)["bound"] - 1e-12 * (1.0
                                                                + abs(B))
    assert abs(out["certificate_gap"]) <= 1e-12 * (
        solver_unit(mesh, coeffs) + abs(B))


def assert_matches_per_element_sum(mesh, coeffs, out):
    """The bound is the per-element sum at its q, and at most the energy
    of the admissible u = 0."""
    ref, size = per_element_bound(mesh, coeffs, out["q"])
    assert abs(out["bound"] - ref) <= 1e-12 * (1.0 + size)
    zero_energy = float((mesh.measures * np.minimum(
        coeffs.a / 2.0 * mesh.frob_norm2(coeffs.C),
        coeffs.b / 2.0 * mesh.frob_norm2(coeffs.D))).sum())
    assert out["bound"] <= zero_energy + 1e-12 * (1.0 + zero_energy)


@settings(max_examples=60, deadline=None)
@given(case=piecewise_coefficients())
def test_lower_bound_piecewise_matches_per_element_sum(case):
    mesh, coeffs = case
    out = relaxation.dual_lower_bound(mesh, coeffs)
    assert_certified(mesh, coeffs, out)
    assert_matches_per_element_sum(mesh, coeffs, out)


def test_lower_bound_over_512_tuples_matches_per_element_sum():
    mesh = make_mesh_2d(16)
    x, y = mesh.centers.T
    coeffs = energy.CoefficientSet(
        mesh, 1.0 + 0.5 * x, 2.0 + x * y,
        np.column_stack([1.0 + 0.2 * x, 0.5 + 0.25 * y, 0.3 * y]),
        np.column_stack([np.full_like(x, 0.5), 0.2 + 0.1 * x,
                         0.8 + 0.3 * x * y]))
    assert len(relaxation._coefficient_tuples(mesh, coeffs)[-1]) == 512
    out = relaxation.dual_lower_bound(mesh, coeffs)
    assert_certified(mesh, coeffs, out)
    assert_matches_per_element_sum(mesh, coeffs, out)


@st.composite
def per_element_coefficients(draw):
    """Per-element (a, b, C, D) on a 1D mesh of 64 elements or a 2D one of
    32, with a = b on some elements: up to 64 distinct tuples, many of
    them tied at the maximum."""
    mesh = draw(st.sampled_from([make_mesh_1d(64), make_mesh_2d(4)]))
    k, n = mesh.n_elem, mesh.n_comp
    a, b = (np.array(draw(st.lists(moduli, min_size=k, max_size=k)))
            for _ in range(2))
    b = np.where(draw(st.lists(st.booleans(), min_size=k, max_size=k)),
                 a, b)
    C, D = (np.array(draw(st.lists(wells, min_size=k * n, max_size=k * n)))
            .reshape(k, n) for _ in range(2))
    return mesh, energy.CoefficientSet(mesh, a, b, C, D)


@settings(max_examples=40, deadline=None)
@given(case=per_element_coefficients())
def test_lower_bound_is_certified_for_many_tuples(case):
    mesh, coeffs = case
    assert_certified(mesh, coeffs, relaxation.dual_lower_bound(mesh, coeffs))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-330, 330])
def test_lower_bound_scales_exactly_with_a_power_of_two(k):
    # wells of 2^k: the bound is 4^k times, q 2^k times, bit for bit, so
    # no tolerance of the solve is absolute and nothing in it overflows
    mesh = make_mesh_2d(8)
    x = mesh.centers[:, 0]

    def bound(c):
        return relaxation.dual_lower_bound(mesh, energy.CoefficientSet(
            mesh, 1.0, 2.0 + x, c * np.array([1.0, 0.5, 0.1]),
            c * np.array([0.3, 0.2, -0.2])))
    base, scaled = bound(1.0), bound(2.0 ** k)
    assert base["bound"] > 0.0
    assert scaled["bound"] == base["bound"] * 4.0 ** k
    assert scaled["q"] == [v * 2.0 ** k for v in base["q"]]


@st.composite
def graded_configs(draw):
    """A one-level 2D run on 16x16 cells whose moduli and wells are linear
    in x and y: hundreds of coefficient tuples.  Its seeds draw no
    laminate, which warns on wells that vary."""
    def linear(constant, slope):
        c0, cx, cy = draw(st.tuples(constant, slope, slope))
        return f"{c0!r} + {cx!r}*x + {cy!r}*y"
    slopes = st.floats(-1.0, 1.0)
    a, b = (linear(moduli, st.floats(0.0, 2.0)) for _ in range(2))
    C, D = (" ; ".join(linear(wells, slopes) for _ in range(3))
            for _ in range(2))
    return configmod.parse_config_text(
        f"[mesh]\ndim = 2\nresolution = 16\n"
        f"[coefficients]\na = {a}\nb = {b}\nC = {C}\nD = {D}\n"
        f"[strategy]\nseeds = zero random\n"
        f"[run]\nwindow = 4\nseed = {draw(st.integers(0, 3))}\n")


@settings(max_examples=20, deadline=None)
@given(cfg=graded_configs())
def test_lower_bound_holds_for_graded_coefficients(cfg):
    report = pipeline.run_experiment(cfg).report
    alpha = report["final"]["alpha_scheme"]
    bound = report["relaxation"]["lower_bound"]["bound"]
    # criterion 10's tolerance; the bound is the best g(q) seen from q = 0,
    # where it is +0.0, so it is no lower
    assert 0.0 <= bound <= alpha + 1e-8


def test_relaxation_section_assembles():
    mesh, coeffs, trace, bundle, d = analysis()
    out = relaxation.relaxation_section(
        mesh, coeffs, bundle, relaxation.gap_theta(mesh, coeffs, bundle),
        trace.alpha)
    assert out["theta_coeff1_in_range"]
    assert out["alpha_residual_coefficient_1"] <= 1e-10
    assert not out["stuck_suspected"]
    assert trace.alpha - out["lower_bound"]["bound"] <= 1e-10


def test_relaxation_section_evaluates_each_piece_once(monkeypatch):
    mesh, coeffs, trace, bundle, d = analysis()
    names = ((energy, "omega0_pieces"), (relaxation, "gap_denominator"),
             (limitsmod, "gap_d"))
    calls = dict.fromkeys((name for _, name in names), 0)
    for module, name in names:
        def counted(*args, _orig=getattr(module, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    relaxation.relaxation_section(
        mesh, coeffs, bundle, relaxation.gap_theta(mesh, coeffs, bundle),
        trace.alpha)
    assert calls == dict.fromkeys(calls, 1)
