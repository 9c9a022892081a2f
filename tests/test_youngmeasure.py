"""Young-measure estimation and its verification checks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from doublewell import descent, energy, limits as limitsmod, \
    mesh as meshmod, youngmeasure

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d


def laminate_analysis(period=4, C=1.0, D=-1.0, n=64, window=8):
    mesh = make_mesh_1d(n)
    coeffs = make_coeffs(mesh, C=C, D=D)
    _, chi = descent.laminate_seed(mesh, coeffs, period)
    trace = descent.alternate(mesh, coeffs, chi)
    windows = meshmod.build_windows(mesh, window)
    bundle = limitsmod.estimate_limits(mesh, windows, trace.eps, trace.p,
                                       trace.chi)
    masks = limitsmod.partition_masks(mesh, coeffs, bundle)
    moments = youngmeasure.estimate_ym(mesh, coeffs, bundle)
    return mesh, coeffs, trace, windows, bundle, masks, moments


def test_atoms_and_weights_structure():
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis()
    weights = mesh.measures / windows.measures[windows.elem_window]
    assert np.allclose(np.bincount(windows.elem_window, weights=weights),
                       1.0)
    assert np.all(weights >= 0.0)
    assert np.allclose(bundle.chia_avg + bundle.chib_avg, 1.0)
    first_moment = np.bincount(windows.elem_window,
                               weights=weights * bundle.eps_raw[:, 0])
    assert np.allclose(first_moment, bundle.eps_avg[:, 0], atol=1e-12)


def test_two_point_law_moments():
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis()
    assert np.allclose(bundle.chia_avg, 0.5)
    assert np.allclose(moments.second_a, 1.0)   # atoms at +-1, a = 1
    assert np.allclose(moments.h, 0.0, atol=1e-20)


def test_energy_representation_residual():
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis()
    out = youngmeasure.ym_energy_check(moments, windows, trace.alpha)
    assert out["residual"] <= 1e-8


def test_second_moment_difference_is_gap_d():
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis()
    out = youngmeasure.second_moment_check(mesh, coeffs, bundle)
    d = limitsmod.gap_d(mesh, coeffs, bundle)
    assert np.isclose(out["difference"], d)


def test_dirac_on_pure_phase_windows():
    # period 16 with window 8: every window sits in a single phase band
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis(period=16)
    assert masks.w0.all()
    rep = youngmeasure.dirac_check(moments, masks)
    assert rep["all_passed"]


def test_dirac_negative_control_misclassified_windows():
    # eta = 0.6 wrongly pulls fully mixed windows into omega_0; their
    # strain variance is O(1) and the check must fail
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis(period=4)
    bad_masks = limitsmod.partition_masks(mesh, coeffs, bundle, eta=0.6)
    assert bad_masks.w0.any()
    rep = youngmeasure.dirac_check(moments, bad_masks)
    assert not rep["all_passed"]


def test_two_point_variance_identity():
    mesh, coeffs, trace, windows, bundle, masks, moments = \
        laminate_analysis(period=4)
    rows = youngmeasure.two_point_variance_check(mesh, coeffs, bundle,
                                                 moments)
    assert rows                    # all windows have atoms at the wells
    for row in rows:
        scale = max(abs(row["predicted"]), 1e-12)
        assert abs(row["gap"] - row["predicted"]) <= 0.05 * scale


# -- the array block against a per-window loop ----------------------------

def reference_block(mesh, coeffs, bundle, chi, masks, alpha):
    """The Young-measure block window by window: one mask per window."""
    windows, eps = bundle.windows, bundle.eps_raw
    h = energy.h_density(coeffs, eps)
    a_l2 = coeffs.a * mesh.frob_norm2(eps)
    total, variances, second, rows = 0.0, [], [], []
    for widx in range(windows.n_windows):
        sel = windows.elem_window == widx
        wts = mesh.measures[sel] / windows.measures[widx]
        atoms = eps[sel]
        mean = (wts[:, None] * atoms).sum(axis=0)
        variances.append(float((wts * mesh.frob_norm2(atoms - mean)).sum()))
        second.append(float((wts * a_l2[sel]).sum()))
        total += windows.measures[widx] * float((wts * h[sel]).sum())
        C, D, a = coeffs.C[sel], coeffs.D[sel], coeffs.a[sel]
        cd2 = mesh.frob_norm2(C - D)
        tol = 1e-3 * (1.0 + np.sqrt(cd2.max()))
        dist = np.minimum(np.sqrt(mesh.frob_norm2(atoms + C)),
                          np.sqrt(mesh.frob_norm2(atoms + D)))
        if np.all(dist <= tol):
            chia = float((wts * chi.chi_a[sel]).sum())
            chib = float((wts * chi.chi_b[sel]).sum())
            gap = second[-1] - float((wts * a).sum() / wts.sum()) \
                * float(mesh.frob_norm2(mean))
            rows.append((widx, gap, float((wts * a * cd2).sum())
                         * chia * chib, second[-1]))
    w0 = [int(w) for w in np.nonzero(masks.w0)[0]]
    return {"ym_energy": total, "dirac_windows": w0,
            "variances": [variances[w] for w in w0],
            "threshold": 1e-6 * (1.0 + max(second)), "rows": rows}


@st.composite
def ym_states(draw):
    """A mesh with piecewise coefficients, a phase field and a strain
    field whose atoms sit at a well in some windows and off the wells,
    in part or in full, in others."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        n = draw(st.sampled_from([8, 16, 32]))
        mesh = make_mesh_1d(n)
    else:
        n = draw(st.sampled_from([2, 4, 8]))
        mesh = make_mesh_2d(n)
    window = draw(st.sampled_from([w for w in (1, 2, 4, 8) if n % w == 0]))
    windows = meshmod.build_windows(mesh, window)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ne, nc = mesh.n_elem, mesh.n_comp
    ew = windows.elem_window
    k = draw(st.integers(1, 3))
    # coefficient tuples scattered per element or constant per window
    pick = rng.integers(0, k, ne) if draw(st.booleans()) \
        else rng.integers(0, k, windows.n_windows)[ew]
    a = rng.uniform(0.2, 5.0, k)[pick]
    b = np.where(rng.random(ne) < 0.5, a, rng.uniform(0.2, 5.0, k)[pick])
    C = rng.uniform(-3.0, 3.0, (k, nc))[pick]
    D = rng.uniform(-3.0, 3.0, (k, nc))[pick]
    coeffs = energy.CoefficientSet(mesh, a, b, C, D)
    # per window: all atoms at a well, some off, or all off; the atoms
    # at a well sit either far inside the default distance tolerance
    # 1e-3 (1 + |C - D|) or just outside the size it has for their tuple
    mode = rng.integers(0, 3, windows.n_windows)[ew]
    off = (mode == 2) | ((mode == 1) & (rng.random(ne) < 0.3))
    well = np.where((rng.random(ne) < 0.5)[:, None], -C, -D)
    jitter = rng.standard_normal((ne, nc))
    jitter *= (rng.choice([1e-5, 1.2e-3], windows.n_windows)[ew]
               * (1.0 + np.sqrt(mesh.frob_norm2(C - D)))
               / np.sqrt(mesh.frob_norm2(jitter)))[:, None]
    eps = np.where(off[:, None], rng.uniform(-3.0, 3.0, (ne, nc)),
                   well + jitter)
    chi = descent.PhaseField.from_a_indicator(rng.random(ne) < 0.5)
    p = rng.standard_normal((ne, nc))
    bundle = limitsmod.estimate_limits(mesh, windows, eps, p, chi)
    masks = limitsmod.partition_masks(mesh, coeffs, bundle,
                                      eta=draw(st.sampled_from([0.05, 0.6])))
    alpha = float(rng.uniform(0.0, 2.0))
    return mesh, coeffs, bundle, chi, masks, alpha


@settings(max_examples=200, deadline=None)
@given(state=ym_states())
def test_block_matches_per_window_loop(state):
    mesh, coeffs, bundle, chi, masks, alpha = state
    block = youngmeasure.young_measure_block(mesh, coeffs, bundle, masks,
                                             alpha)
    ref = reference_block(mesh, coeffs, bundle, chi, masks, alpha)

    energy_out = block["energy"]
    assert np.isclose(energy_out["ym_energy"], ref["ym_energy"],
                      rtol=1e-12, atol=1e-14)
    assert energy_out["residual"] == abs(energy_out["ym_energy"] - alpha)

    dirac = block["dirac"]
    assert dirac["windows"] == ref["dirac_windows"]
    assert np.allclose(dirac["variances"], ref["variances"], rtol=1e-12,
                       atol=1e-14)
    assert np.isclose(dirac["threshold"], ref["threshold"], rtol=1e-14)
    thr = ref["threshold"]
    if all(abs(v - thr) > 1e-9 * thr for v in ref["variances"]):
        assert dirac["all_passed"] == all(v <= thr
                                          for v in ref["variances"])

    rows = block["two_point_variance"]
    assert [r["window"] for r in rows] == [r[0] for r in ref["rows"]]
    for row, (_, gap, predicted, second) in zip(rows, ref["rows"]):
        assert abs(row["gap"] - gap) <= 1e-12 * (1.0 + 2.0 * second)
        assert np.isclose(row["predicted"], predicted, rtol=1e-12,
                          atol=1e-14)
