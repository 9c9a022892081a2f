"""Envelope, exact 1D infimum, dense-solve reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from doublewell import oracles, subproblem, descent
from doublewell.errors import ContractViolation

from conftest import make_coeffs, make_mesh_1d


def test_envelope_coaxial_wells():
    env = oracles.envelope_1d(2.0, 1.0, 3.0, 1.0)
    xi = np.linspace(-3, 3, 101)
    assert np.allclose(env(xi), 0.5 * 2.0 * (xi + 1.0) ** 2)


def test_envelope_symmetric_wells():
    env = oracles.envelope_1d(1.0, 1.0, 1.0, -1.0)
    assert env(0.0) == 0.0
    xi = np.linspace(-1, 1, 41)
    assert np.allclose(env(xi), 0.0)
    assert np.isclose(env(2.0), 0.5 * (2.0 - 1.0) ** 2)
    kinds = [p["kind"] for p in env.pieces]
    assert kinds == ["parabola-a", "affine", "parabola-b"]


def test_envelope_wells_minus1_plus3():
    env = oracles.envelope_1d(1.0, 1.0, 1.0, -3.0)
    assert env(0.0) == 0.0
    assert np.allclose(env(np.linspace(-1, 3, 17)), 0.0)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.2, 5.0), c=st.floats(-3.0, 3.0),
       b=st.floats(0.2, 5.0), d=st.floats(-3.0, 3.0))
def test_envelope_convex_and_below_min_on_grid(a, c, b, d):
    xi = np.linspace(-5, 5, 10_000)
    env = oracles.envelope_1d(a, c, b, d)
    f = env(xi)
    assert np.all(f <= env.raw(xi) + 1e-12)
    mid = 0.5 * (f[:-2] + f[2:])
    assert np.all(f[1:-1] <= mid + 1e-12)   # midpoint convexity


def test_envelope_rejects_bad_moduli():
    with pytest.raises(ContractViolation):
        oracles.envelope_1d(0.0, 1.0, 1.0, -1.0)


def test_exact_alpha_values():
    mesh = make_mesh_1d(16)
    assert np.isclose(
        oracles.exact_alpha_1d(make_coeffs(mesh, C=1.0, D=1.0)), 0.5)
    assert oracles.exact_alpha_1d(make_coeffs(mesh, C=1.0, D=-1.0)) == 0.0
    assert oracles.exact_alpha_1d(make_coeffs(mesh, C=1.0, D=-3.0)) == 0.0


def test_exact_alpha_matches_convex_solve():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, a=2.0, b=2.0, C=0.3, D=0.3)
    trace = descent.alternate(
        mesh, coeffs, descent.build_seed(mesh, coeffs, "zero", None))
    exact = oracles.exact_alpha_1d(coeffs)
    assert abs(trace.alpha - exact) <= 1e-10 * mesh.measures.sum()


def test_dense_oracle_zero_load():
    mesh = make_mesh_1d(8)
    coeffs = make_coeffs(mesh, C=0.0, D=0.0)
    chi = descent.PhaseField.from_a_indicator(np.ones(mesh.n_elem, bool))
    problem = subproblem.assemble(mesh, coeffs, chi)
    u = oracles.dense_solve_oracle(problem)
    assert np.allclose(u, 0.0)


def test_dense_oracle_residual():
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0, C=0.7, D=-0.4)
    rng = np.random.default_rng(0)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u = oracles.dense_solve_oracle(problem)
    x = problem.to_interior(u)
    res = problem.K @ x + problem.f
    assert np.abs(res).max() <= 1e-12


def test_laminate_oracle_incompatible_raises():
    from conftest import make_mesh_2d
    mesh = make_mesh_2d(8)
    coeffs = make_coeffs(mesh, C=[2.0, 0.0, 2.0], D=[1.0, 0.0, 1.0])
    with pytest.raises(ContractViolation):
        oracles.laminate_oracle(mesh, coeffs, 4)
