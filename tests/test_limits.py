"""Weak-limit estimation, partitions, gap scalar, pairing diagnostic."""

import numpy as np
from hypothesis import given, settings, strategies as st

from doublewell import descent, energy, limits as limitsmod, \
    mesh as meshmod, youngmeasure

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d


def laminate_run(n=64, period=4, C=1.0, D=-1.0, window=8):
    mesh = make_mesh_1d(n)
    coeffs = make_coeffs(mesh, C=C, D=D)
    _, chi = descent.laminate_seed(mesh, coeffs, period)
    trace = descent.alternate(mesh, coeffs, chi)
    windows = meshmod.build_windows(mesh, window)
    bundle = limitsmod.estimate_limits(mesh, windows, trace.eps, trace.p,
                                       trace.chi)
    return mesh, coeffs, trace, windows, bundle


def test_symmetric_laminate_averages_vanish():
    mesh, coeffs, trace, windows, bundle = laminate_run()
    assert np.allclose(bundle.psi_avg, 0.0, atol=1e-12)
    assert np.allclose(bundle.eps_avg, 0.0, atol=1e-12)
    assert np.allclose(bundle.p_avg, 0.0, atol=1e-10)
    assert np.allclose(bundle.chia_avg + bundle.chib_avg, 1.0)


def test_partition_masks_symmetric_laminate():
    mesh, coeffs, trace, windows, bundle = laminate_run()
    masks = limitsmod.partition_masks(mesh, coeffs, bundle, eta=0.05)
    assert coeffs.omega0.all()                # a = b everywhere
    assert masks.omega0_window.all()
    assert not masks.w0.any()                 # every window fully mixed
    assert not masks.w0_plus.any()
    assert not masks.w0_minus.any()


def test_partition_masks_two_region():
    mesh = make_mesh_1d(64)
    from doublewell import energy
    b = np.where(mesh.centers[:, 0] < 0.5, 1.0, 2.0)
    coeffs = energy.CoefficientSet(mesh, 1.0, b, [1.0], [-1.0])
    chi = descent.PhaseField.from_a_indicator(np.ones(mesh.n_elem, bool))
    eps = np.zeros((mesh.n_elem, 1))
    windows = meshmod.build_windows(mesh, 8)
    bundle = limitsmod.estimate_limits(mesh, windows, eps, eps.copy(), chi)
    masks = limitsmod.partition_masks(mesh, coeffs, bundle)
    assert np.array_equal(coeffs.omega0, mesh.centers[:, 0] < 0.5)
    assert masks.omega0_window.sum() == 4
    assert masks.w0.all()                     # pure phase a everywhere
    assert masks.w0_minus.all()
    assert not masks.w0_plus.any()


def test_gap_d_symmetric_laminate_equals_one():
    mesh, coeffs, trace, windows, bundle = laminate_run()
    d = limitsmod.gap_d(mesh, coeffs, bundle)
    # strains at +-1, means 0:  d = int a |eps|^2 = 1
    assert np.isclose(d, 1.0, atol=1e-10)
    assert d >= -1e-12                        # Jensen


def test_gap_d_zero_without_oscillation():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, C=1.0, D=1.0)
    trace = descent.alternate(
        mesh, coeffs, descent.build_seed(mesh, coeffs, "zero", None))
    windows = meshmod.build_windows(mesh, 8)
    bundle = limitsmod.estimate_limits(mesh, windows, trace.eps, trace.p,
                                       trace.chi)
    # convex problem: the solution strain is constant per window
    d = limitsmod.gap_d(mesh, coeffs, bundle)
    assert abs(d) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), window=st.integers(1, 8),
       blocks=st.integers(1, 4), spread=st.sampled_from([0.0, 1e-8, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_gap_d_is_the_omega0_window_variance(dim, window, blocks, spread,
                                             seed):
    # a and b constant on each window, so Omega_0 is made of whole
    # windows and d = sum over them of |w| a_w Var_w(eps) >= 0 (Jensen);
    # spread 0 gives strains constant per window, where d is round-off
    rng = np.random.default_rng(seed)
    n = window * blocks
    mesh = make_mesh_1d(n) if dim == 1 else make_mesh_2d(n)
    windows = meshmod.build_windows(mesh, window)
    ew, nw, nc = windows.elem_window, windows.n_windows, mesh.n_comp
    a_w = rng.uniform(0.2, 5.0, nw)
    b_w = np.where(rng.random(nw) < 0.5, a_w, rng.uniform(0.2, 5.0, nw))
    coeffs = energy.CoefficientSet(
        mesh, a_w[ew], b_w[ew], rng.uniform(-3.0, 3.0, (mesh.n_elem, nc)),
        rng.uniform(-3.0, 3.0, (mesh.n_elem, nc)))
    eps = (rng.uniform(-3.0, 3.0, (nw, nc))[ew]
           + spread * rng.standard_normal((mesh.n_elem, nc)))
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    bundle = limitsmod.estimate_limits(
        mesh, windows, eps, rng.standard_normal((mesh.n_elem, nc)), chi)
    masks = limitsmod.partition_masks(mesh, coeffs, bundle)
    assert np.array_equal(masks.omega0_window, a_w == b_w)

    d = limitsmod.gap_d(mesh, coeffs, bundle)
    scale = 1.0 + float((mesh.measures * coeffs.a
                         * mesh.frob_norm2(eps)).sum())
    assert d >= -1e-12 * scale
    variance = youngmeasure.estimate_ym(mesh, coeffs, bundle).variance
    expected = float((windows.measures * a_w * variance)[a_w == b_w].sum())
    assert abs(d - expected) <= 1e-12 * scale


def test_pairing_diagnostic_levels_shrink():
    mesh, coeffs, trace, windows, bundle = laminate_run()
    coarse = make_mesh_1d(16)
    ccoeffs = make_coeffs(coarse, C=1.0, D=-1.0)
    _, chi0 = descent.laminate_seed(coarse, ccoeffs, 4)
    t0 = descent.alternate(coarse, ccoeffs, chi0)
    testset = meshmod.default_test_functions(mesh)
    out = limitsmod.pairing_diagnostic([coarse, mesh], [t0, trace], bundle,
                                       testset)
    assert np.shape(out["limit"]) == (testset.n_test,)
    assert np.shape(out["value"]) == np.shape(out["residual"]) \
        == (2, testset.n_test)
    assert np.array_equal(out["residual"], np.abs(
        np.subtract(out["value"], out["limit"])))
    assert not any(out["non_decreasing_flags"])
