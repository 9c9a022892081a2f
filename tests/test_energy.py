"""Pointwise double-well algebra."""

import numpy as np
import pytest

from doublewell import descent, energy, subproblem
from doublewell.errors import ContractViolation

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d


def test_well_energies_vanish_at_wells():
    mesh = make_mesh_1d(8)
    coeffs = make_coeffs(mesh, a=2.0, b=3.0, C=1.0, D=-1.0)
    at_a = np.full((mesh.n_elem, 1), -1.0)    # xi = -C
    at_b = np.full((mesh.n_elem, 1), 1.0)     # xi = -D
    ea, eb = energy.well_energies(coeffs, at_a)
    assert np.allclose(ea, 0.0)
    assert np.allclose(eb, 0.5 * 3.0 * 4.0)
    ea, eb = energy.well_energies(coeffs, at_b)
    assert np.allclose(eb, 0.0)


def test_h_density_is_the_min():
    mesh = make_mesh_1d(16)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0, C=0.5, D=-0.5)
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((mesh.n_elem, 1))
    ea, eb = energy.well_energies(coeffs, xi)
    assert np.array_equal(energy.h_density(coeffs, xi),
                          np.minimum(ea, eb))


def test_modulus_and_reciprocal_identity():
    mesh = make_mesh_1d(16)
    coeffs = make_coeffs(mesh, a=1.0, b=3.0)
    rng = np.random.default_rng(1)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    m = subproblem.assemble(mesh, coeffs, chi).m
    assert set(np.unique(m)) <= {1.0, 3.0}


def test_offset_B_of_each_phase():
    mesh = make_mesh_1d(8)
    coeffs = make_coeffs(mesh, a=2.0, b=1.0, C=1.0, D=2.0)

    def offset(is_a):
        chi = descent.PhaseField.from_a_indicator(np.full(mesh.n_elem, is_a))
        return subproblem.assemble(mesh, coeffs, chi).B
    # psi = -1 selects phase a: B = a|C|^2
    assert np.allclose(offset(True), 2.0)
    # psi = +1 selects phase b: B = b|D|^2
    assert np.allclose(offset(False), 4.0)


def test_tilt_field_matches_plus_minus_decomposition():
    mesh = make_mesh_2d(2)
    coeffs = make_coeffs(mesh, a=2.0, b=5.0,
                         C=[1.0, 0.5, -1.0], D=[0.0, 1.0, 2.0])
    rng = np.random.default_rng(2)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    aC, bD = 2.0 * coeffs.C, 5.0 * coeffs.D
    expect = (aC + bD) / 2.0 + chi.psi[:, None] * (bD - aC) / 2.0
    assert np.allclose(subproblem.assemble(mesh, coeffs, chi).E, expect)


def test_modulus_floor_enforced():
    # a modulus below the floor, NaN or infinite is rejected
    mesh = make_mesh_1d(4)
    for moduli in ({"a": 0.0}, {"a": np.nan}, {"b": np.inf}):
        with pytest.raises(ContractViolation):
            make_coeffs(mesh, **moduli)


def test_omega0_mask_piecewise():
    mesh = make_mesh_1d(10)
    b = np.where(mesh.centers[:, 0] < 0.5, 1.0, 2.0)
    coeffs = energy.CoefficientSet(mesh, 1.0, b, [1.0], [-1.0])
    mask = energy.omega0_mask(coeffs)
    assert np.array_equal(mask, mesh.centers[:, 0] < 0.5)
