"""Alternating descent, laminate seeding, multistart, continuation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from doublewell import (descent, energy, mesh as meshmod, oracles, parallel,
                        pipeline)
from doublewell.errors import ConfigurationError

from conftest import config_from, make_coeffs, make_mesh_1d, make_mesh_2d


def test_phase_assignment_ties_go_to_a():
    mesh = make_mesh_1d(8)
    coeffs = make_coeffs(mesh, C=1.0, D=1.0)    # identical wells
    chi = descent.assign_phases(coeffs, np.zeros((mesh.n_elem, 1)))
    assert np.all(chi.chi_a == 1.0)


def test_convex_case_fixed_point_in_one_step():
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, C=1.0, D=1.0)
    trace = descent.alternate(
        mesh, coeffs, descent.build_seed(mesh, coeffs, "zero", None))
    assert trace.fixed_point
    assert len(trace.steps) == 1
    assert np.isclose(trace.alpha, 0.5)


def test_descent_monotone_from_random_seed():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    rng = np.random.default_rng(0)
    trace = descent.alternate(mesh, coeffs, descent.random_phase(mesh, rng))
    alphas = trace.alphas
    assert all(alphas[k + 1] <= alphas[k] + 1e-10
               for k in range(len(alphas) - 1))
    assert trace.fixed_point


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0),
       C=st.floats(-2.0, 2.0), D=st.floats(-2.0, 2.0),
       is_a=st.integers(8, 32).flatmap(
           lambda n: st.lists(st.booleans(), min_size=n, max_size=n)))
# a load near 1e-161: unscaled CG inner products underflow to nan
@example(a=1.0, b=1.0, C=0.0, D=2.857516223264295e-161,
         is_a=[False] * 7 + [True])
def test_descent_properties_on_random_1d_problems(a, b, C, D, is_a):
    mesh = make_mesh_1d(len(is_a))
    coeffs = make_coeffs(mesh, a=a, b=b, C=C, D=D)
    trace = descent.alternate(
        mesh, coeffs, descent.PhaseField.from_a_indicator(is_a))
    alphas = trace.alphas
    assert all(alphas[k + 1] <= alphas[k] + 1e-10
               for k in range(len(alphas) - 1))
    assert all(abs(s["gap"]) <= 1e-8 * (1.0 + abs(s["alpha"]))
               for s in trace.steps)
    assert trace.eps.tobytes() \
        == mesh.symmetrized_gradient(trace.u).tobytes()


def test_laminate_seed_symmetric_exact_zero_every_resolution():
    for n in (16, 32, 64):
        mesh = make_mesh_1d(n)
        coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
        u, chi, value = oracles.laminate_oracle(mesh, coeffs, 4)
        assert value == 0.0
        trace = descent.alternate(mesh, coeffs, chi)
        assert trace.alpha <= 1e-10


def test_laminate_seed_asymmetric_wells():
    # wells -1 and +3: volume fraction t = 3/4, zero-mean sawtooth
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, C=1.0, D=-3.0)
    u, chi, info = descent.laminate_seed(mesh, coeffs, 4)
    assert np.isclose(info["t"], 0.75)
    assert info["exact_mean_zero"]
    eps = mesh.symmetrized_gradient(u)
    assert abs((mesh.measures * eps[:, 0]).sum()) < 1e-12
    assert oracles.laminate_oracle(mesh, coeffs, 4)[2] == 0.0


def test_laminate_period_must_divide():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh)
    with pytest.raises(ConfigurationError):
        descent.laminate_seed(mesh, coeffs, 5)


def test_bare_laminate_seed_has_period_two():
    mesh = make_mesh_1d(16)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    bare, two, four = (descent.build_seed(mesh, coeffs, spec,
                                          np.random.default_rng(0))
                       for spec in ("laminate", "laminate:2", "laminate:4"))
    assert np.array_equal(bare.chi_a, two.chi_a)
    assert np.array_equal(
        bare.chi_a, descent.laminate_seed(mesh, coeffs, 2)[1].chi_a)
    assert not np.array_equal(bare.chi_a, four.chi_a)


def test_rank_one_decompose():
    M = np.array([[0.0, 0.5], [0.5, 0.0]])    # sym(e1 x e2)
    eta, nu = descent.rank_one_decompose(M)
    assert np.allclose(0.5 * (np.outer(eta, nu) + np.outer(nu, eta)), M)
    assert descent.rank_one_decompose(np.eye(2)) is None


def test_2d_laminate_compatible_pair_zero_energy():
    mesh = make_mesh_2d(16)
    coeffs = make_coeffs(mesh, C=[0.0, 0.5, 0.0], D=[0.0, -0.5, 0.0])
    u, chi, value = oracles.laminate_oracle(mesh, coeffs, 4)
    eps = mesh.symmetrized_gradient(u)
    # interior strains sit at the wells; only the clamped boundary
    # columns contribute
    interior = energy.h_density(coeffs, eps) < 1e-20
    assert interior.mean() > 0.8
    assert value <= 0.2    # O(h) boundary layer; decay tested elsewhere


def test_2d_incompatible_wells_reported():
    mesh = make_mesh_2d(8)
    coeffs = make_coeffs(mesh, C=[2.0, 0.0, 2.0], D=[1.0, 0.0, 1.0])
    u, chi, info = descent.laminate_seed(mesh, coeffs, 4)
    assert u is None
    assert not info["compatible"]


def test_laminate_seed_warns_when_the_wells_vary():
    # xy-wells 0.5 + 0.25 x and -0.5 + 0.1 y: the laminate is built from
    # element 0's wells, the same u as with those wells everywhere
    mesh = make_mesh_2d(8)
    x, y = mesh.centers.T
    zero = np.zeros(mesh.n_elem)
    C = np.stack([zero, 0.5 + 0.25 * x, zero], axis=1)
    D = np.stack([zero, -0.5 + 0.1 * y, zero], axis=1)
    varying = energy.CoefficientSet(mesh, 1.0, 1.0, C, D)
    with pytest.warns(UserWarning, match="wells vary"):
        u, chi, info = descent.laminate_seed(mesh, varying, 4)
    assert info["wells_vary"] is True
    first = make_coeffs(mesh, C=C[0], D=D[0])
    u0, _, info0 = descent.laminate_seed(mesh, first, 4)
    assert info0["wells_vary"] is False
    assert np.array_equal(u, u0) and info["t"] == info0["t"]


def test_multistart_laminate_beats_zero_seed():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    rng = np.random.default_rng(1)
    traces = descent.multistart(mesh, coeffs, ["zero", "laminate:4"], rng)
    assert traces[0].seed_label == "laminate:4"
    assert traces[0].alpha <= 1e-10
    assert traces[-1].alpha >= 0.49     # the stuck zero seed


def test_multistart_deterministic_for_fixed_seed():
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(7)
        traces = descent.multistart(mesh, coeffs, ["random", "random"], rng)
        runs.append([t.alpha for t in traces])
    assert runs[0] == runs[1]


def test_multistart_runs_continued_last_among_ties():
    # the phases carried from the coarser level start after the seeds, so
    # the stable sort by final alpha puts them behind a seed they tie
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    zero = descent.build_seed(mesh, coeffs, "zero", None)
    _, laminate, _ = descent.laminate_seed(mesh, coeffs, 4)
    tied, better = (descent.multistart(mesh, coeffs, ["zero"],
                                       np.random.default_rng(0),
                                       continued=continued)
                    for continued in (zero, laminate))
    assert [t.seed_label for t in tied] == ["zero", "continued"]
    assert tied[0].alpha == tied[1].alpha
    assert [t.seed_label for t in better] == ["continued", "zero"]
    assert better[0].alpha < better[1].alpha


def test_multistart_hands_out_the_longest_start_first(monkeypatch):
    # in one process `alternate` runs in the order the starts are handed
    # out: by the steps of the coarser level's trace of each label, most
    # first; the traces come back as without that order, the tie of zero
    # and continued in start order
    monkeypatch.setattr(parallel, "_cores", lambda: 1)
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, C=1.0, D=-1.0)
    zero = descent.build_seed(mesh, coeffs, "zero", None)
    coarser = [descent.RunTrace(label, steps=[{}] * n) for label, n in
               (("laminate:4", 1), ("zero", 3), ("random", 2),
                ("continued", 4))]
    handed, alternate = [], descent.alternate
    monkeypatch.setattr(descent, "alternate", lambda *a, **k: (
        handed.append(k["seed_label"]) or alternate(*a, **k)))
    runs = [[(t.seed_label, t.alpha) for t in descent.multistart(
        mesh, coeffs, ["laminate:4", "random", "zero"],
        np.random.default_rng(0), continued=zero, coarser=c)]
        for c in ((), coarser)]
    assert handed == ["laminate:4", "random", "zero", "continued",
                      "continued", "zero", "random", "laminate:4"]
    assert runs[0] == runs[1]
    labels = [label for label, _ in runs[0]]
    assert labels.index("zero") < labels.index("continued")
    assert dict(runs[0])["zero"] == dict(runs[0])["continued"]


def test_refinement_continuation_prolongs_phases():
    coarse = make_mesh_1d(16)
    coeffs = make_coeffs(coarse, C=1.0, D=-1.0)
    rng = np.random.default_rng(3)
    trace = descent.alternate(coarse, coeffs,
                              descent.random_phase(coarse, rng))
    fine = meshmod.refine(coarse)
    init = descent.refine_continue(fine, trace)
    kids = init.chi_a.reshape(-1, 2)
    assert np.array_equal(kids[:, 0], kids[:, 1])
    assert np.array_equal(kids[:, 0], trace.chi.chi_a)


def _laminate_alpha(coeffs, period):
    """Best final alpha of the seeds laminate:<period> and zero."""
    return descent.multistart(coeffs.mesh, coeffs,
                              [f"laminate:{period}", "zero"],
                              np.random.default_rng(0))[0].alpha


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0),
       C=st.floats(-2.0, 2.0), D=st.floats(-2.0, 2.0),
       period=st.sampled_from([2, 4, 8]))
def test_laminate_descent_respects_the_jensen_bound(a, b, C, D, period):
    # alpha is the energy of an admissible state, so it cannot fall below
    # the relaxed infimum |Omega| f**(0); it need not reach it when t P is
    # not a whole number of elements
    coeffs = make_coeffs(make_mesh_1d(32), a=a, b=b, C=C, D=D)
    exact = oracles.exact_alpha_1d(coeffs)
    assert _laminate_alpha(coeffs, period) \
        >= exact - 1e-12 * (1.0 + abs(exact))


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0),
       C=st.floats(-2.0, 2.0),
       tk=st.sampled_from([2, 4, 8]).flatmap(
           lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
def test_laminate_descent_is_exact_on_whole_element_fractions(a, b, C, tk):
    # t = k/P puts the mean-zero volume fraction on whole elements: the
    # laminate sits at the wells and both alpha and f**(0) vanish
    period, k = tk
    t = k / period
    coeffs = make_coeffs(make_mesh_1d(32), a=a, b=b, C=C,
                         D=-t * C / (1.0 - t))
    assert _laminate_alpha(coeffs, period) <= 1e-10
    assert oracles.exact_alpha_1d(coeffs) == 0.0


@pytest.mark.parametrize("C, D, direction", [
    ((0.0, 0.5, 0.0), (0.0, -0.5, 0.0), "x"),
    ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5), "y"),
    ((0.5, 0.0, 0.0), (-0.5, 0.0, 0.0), "x"),
    ((0.3, 0.2, 0.0), (-0.1, -0.2, 0.0), "x"),
])
def test_laminate_layer_normal_prefers_the_closest_axis(C, D, direction):
    mesh = make_mesh_2d(8)
    coeffs = make_coeffs(mesh, C=C, D=D)
    _, _, info = descent.laminate_seed(mesh, coeffs, 4)
    assert info["direction"] == direction


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, D", [
    # step 1's load has entries of about 5.6e-17, so 2^s is about 2^53:
    # CG from the scaled u0 would fail (residual 9.332e-01 after 2
    # iterations)
    (2.5980134050795503, "0.0 ; 0.25 ; 1.0"),
    # a load below 2^-1024 scales u0 past the largest float64
    (1.0, "0.0 ; 0.5 ; 2.225073858507e-311")])
def test_a_round_off_load_starts_cg_from_zero(a, D):
    # the previous step's u is no start for a load at round-off size: the
    # guard turns it down, and the run completes without a warning
    cfg = config_from(
        f"[mesh]\ndim = 2\nresolution = 4\n[coefficients]\na = {a!r}\n"
        f"b = {a!r}\nC = 0.0 ; 0.0 ; 2.0\nD = {D}\n[strategy]\n"
        "seeds = laminate:4 laminate random\n[run]\nwindow = 4\n")
    report = pipeline.run_experiment(cfg).report
    assert any(len(trace["steps"]) > 1
               for trace in report["levels"][0]["traces"])
