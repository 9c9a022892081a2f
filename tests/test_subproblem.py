"""Convex subproblem: assembly, CG solve, duality, algebraic identities."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from doublewell import descent, energy, mesh as meshmod, oracles, subproblem

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d


def phase_all_a(mesh):
    return descent.PhaseField.from_a_indicator(np.ones(mesh.n_elem, bool))


def test_convex_solve_matches_analytic_value():
    # min over H^1_0 of  int 0.5 |u' + 1|^2  is attained at u = 0
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, C=1.0, D=1.0)
    chi = phase_all_a(mesh)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)
    assert np.allclose(u, 0.0)
    assert np.isclose(rep.alpha, 0.5)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
@example(dim=2, n=1, seed=0)
def test_quadratic_form_is_the_direct_energy(dim, n, seed):
    # 0.5 x.Kx + f.x + c at a random interior x is J of the displacement
    # with interior values x, by elementwise quadrature of its strain: the
    # same energy reached without the strain matrix
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    rng = np.random.default_rng(seed)
    a = 0.5 + rng.random(mesh.n_elem)
    b = a * (1.0 + 99.0 * rng.random(mesh.n_elem))
    C, D = rng.standard_normal((2, mesh.n_elem, mesh.n_comp))
    coeffs = energy.CoefficientSet(mesh, a, b, C, D)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    x = rng.standard_normal(problem.n_dof)
    terms = (0.5 * x @ (problem.K @ x), problem.f @ x, problem.c)
    direct = subproblem.direct_energy(
        problem, mesh.symmetrized_gradient(problem.to_full(x)))
    assert abs(sum(terms) - direct) <= 1e-12 * sum(map(abs, terms))


@pytest.mark.parametrize("mesh", [make_mesh_1d(16), make_mesh_2d(4)],
                         ids=["1d", "2d"])
def test_basis_strain_norms_are_the_unit_diagonal(mesh):
    coeffs = make_coeffs(mesh, C=[1.0] * mesh.n_comp, D=[-1.0] * mesh.n_comp)
    problem = subproblem.assemble(mesh, coeffs, phase_all_a(mesh))
    assert np.allclose(mesh.basis_strain_norms ** 2, problem.K.diagonal(),
                       rtol=1e-14, atol=0.0)


def test_cg_matches_dense_oracle_1d():
    mesh = make_mesh_1d(4)
    C = np.where(np.arange(mesh.n_elem) // 2 % 2 == 0, 1.0, -1.0)[:, None]
    coeffs = energy.CoefficientSet(mesh, 1.0, 1.0, C, C)
    chi = phase_all_a(mesh)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, _ = subproblem.solve(problem)
    u_dense = oracles.dense_solve_oracle(problem)
    assert np.abs(u - u_dense).max() <= 1e-9


def test_cg_matches_dense_oracle_2d():
    mesh = make_mesh_2d(4)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0,
                         C=[1.0, 0.2, -0.5], D=[1.0, 0.2, -0.5])
    rng = np.random.default_rng(3)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, _ = subproblem.solve(problem)
    u_dense = oracles.dense_solve_oracle(problem)
    assert np.abs(u - u_dense).max() <= 1e-9


def test_duality_gap_zero_at_optimum():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0, C=0.7, D=-0.3)
    rng = np.random.default_rng(4)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)
    p = subproblem.dual_variable(problem, mesh.symmetrized_gradient(u))
    drep = subproblem.duality_report(problem, p, rep.alpha)
    assert abs(drep["gap"]) <= 1e-8 * (1.0 + abs(rep.alpha))
    assert drep["ker_residual"] <= 1e-9


def test_dual_objective_of_suboptimal_field_is_below():
    # weak duality: -I(q) <= alpha for any admissible q; at constant q
    # (always in Ker L*) the inequality must hold strictly or not at all
    mesh = make_mesh_1d(32)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0, C=0.7, D=-0.3)
    rng = np.random.default_rng(5)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    _, rep = subproblem.solve(problem)
    for qval in (-1.0, 0.0, 0.5, 2.0):
        q = np.full((mesh.n_elem, 1), qval)
        assert -subproblem.dual_objective(problem, q) <= rep.alpha + 1e-12


def test_orthogonality_of_primal_dual_pair():
    mesh = make_mesh_2d(4)
    coeffs = make_coeffs(mesh, a=1.0, b=3.0,
                         C=[0.5, 0.1, 0.0], D=[-0.5, 0.0, 0.3])
    rng = np.random.default_rng(6)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, _ = subproblem.solve(problem)
    eps = mesh.symmetrized_gradient(u)
    p = subproblem.dual_variable(problem, eps)
    assert subproblem.orthogonality_residual(problem, eps, p) <= 1e-8


def test_energy_identity_and_representations():
    mesh = make_mesh_1d(64)
    coeffs = make_coeffs(mesh, a=1.0, b=2.0, C=0.7, D=-0.3)
    rng = np.random.default_rng(7)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)
    eps = mesh.symmetrized_gradient(u)
    p = subproblem.dual_variable(problem, eps)
    omega0 = energy.omega0_mask(coeffs)
    out = subproblem.alpha_representations(problem, eps, p, omega0)
    scale = 1.0 + abs(out["alpha_direct"])
    assert abs(out["alpha_rep_bulk"] - out["alpha_direct"]) <= 1e-8 * scale
    assert abs(out["alpha_rep_tilt"] - out["alpha_direct"]) <= 1e-8 * scale
    assert out["energy_identity_residual"] <= 1e-8 * scale
    assert abs(out["alpha_split_primal"] - out["alpha_direct"]) <= 1e-8 * scale
    assert abs(out["alpha_split_dual"] - out["alpha_direct"]) <= 1e-8 * scale


def test_split_representations_with_equal_moduli_region():
    # a = b on half the domain exercises the Omega_0 split forms
    mesh = make_mesh_1d(64)
    b = np.where(mesh.centers[:, 0] < 0.5, 1.0, 2.0)
    coeffs = energy.CoefficientSet(mesh, 1.0, b, [0.7], [-0.3])
    rng = np.random.default_rng(8)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)
    eps = mesh.symmetrized_gradient(u)
    p = subproblem.dual_variable(problem, eps)
    omega0 = energy.omega0_mask(coeffs)
    assert 0 < omega0.sum() < mesh.n_elem
    out = subproblem.alpha_representations(problem, eps, p, omega0)
    scale = 1.0 + abs(out["alpha_direct"])
    assert abs(out["alpha_split_primal"] - out["alpha_direct"]) <= 1e-8 * scale
    assert abs(out["alpha_split_dual"] - out["alpha_direct"]) <= 1e-8 * scale
    assert out["guard_zone_measure"] == 0.0


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(2, 8),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_split_representations_match_direct_energy(dim, n, share, seed):
    # a = b on a random share of the elements, b/a in [1.5, 4] or its
    # inverse on the rest (far from the guard zone): both Omega_0-split
    # forms equal the direct energy of the solve
    cells = n if dim == 2 else 8 * n
    mesh = meshmod.build_mesh((1.0,) * dim, (cells,) * dim, dim)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 5.0, mesh.n_elem)
    ratio = rng.uniform(1.5, 4.0, mesh.n_elem) ** rng.choice([-1, 1],
                                                             mesh.n_elem)
    b = np.where(rng.random(mesh.n_elem) < share, a, a * ratio)
    C, D = rng.uniform(-3.0, 3.0, (2, mesh.n_elem, mesh.n_comp))
    coeffs = energy.CoefficientSet(mesh, a, b, C, D)
    chi = descent.PhaseField.from_a_indicator(rng.random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, _ = subproblem.solve(problem)
    eps = mesh.symmetrized_gradient(u)
    p = subproblem.dual_variable(problem, eps)
    out = subproblem.alpha_representations(problem, eps, p,
                                           energy.omega0_mask(coeffs))
    scale = 1.0 + abs(out["alpha_direct"])
    assert abs(out["alpha_split_primal"] - out["alpha_direct"]) <= 1e-8 * scale
    assert abs(out["alpha_split_dual"] - out["alpha_direct"]) <= 1e-8 * scale
    assert out["guard_zone_measure"] == 0.0


def test_zero_load_short_circuit():
    mesh = make_mesh_1d(16)
    coeffs = make_coeffs(mesh, C=0.0, D=0.0)
    chi = phase_all_a(mesh)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)
    assert np.array_equal(u, np.zeros_like(u))
    assert rep.alpha == 0.0


def test_tiny_loads_solve_like_the_unit_load():
    # CG runs on the load scaled by a power of two, so a load 2^-k times
    # as large gives a u 2^-k times as large, bit for bit, in as many
    # iterations: no underflow to nan, no zero-load shortcut
    for mesh in (make_mesh_1d(16), make_mesh_2d(4)):
        coeffs = make_coeffs(mesh, a=1.0, b=3.0,
                             C=[1.0] * mesh.n_comp, D=[-1.0] * mesh.n_comp)
        chi = descent.PhaseField.from_a_indicator(
            np.arange(mesh.n_elem) % 3 == 0)
        problem = subproblem.assemble(mesh, coeffs, chi)
        u, rep = subproblem.solve(problem)
        assert rep.iterations > 0 and np.abs(u).max() > 0.0
        for k in (520, 600):
            tiny = dataclasses.replace(problem, f=np.ldexp(problem.f, -k))
            u_k, rep_k = subproblem.solve(tiny)
            assert u_k.tobytes() == np.ldexp(u, -k).tobytes()
            assert rep_k.iterations == rep.iterations


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 8)])
def test_galerkin_operator_is_the_coarse_operator(dim, n):
    # moduli, wells and phases constant on each coarse element (a != b):
    # P^T K P and P^T f are the coarse mesh's own K and f, to round-off
    coarse = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    fine = meshmod.refine(coarse)
    rng = np.random.default_rng(dim)
    a = 1.0 + rng.random(coarse.n_elem)
    b = a * (1.0 + 99.0 * rng.random(coarse.n_elem))
    C = rng.standard_normal((coarse.n_elem, coarse.n_comp))
    D = rng.standard_normal((coarse.n_elem, coarse.n_comp))
    is_a = rng.random(coarse.n_elem) < 0.5

    def problem(mesh, per_elem):
        coeffs = energy.CoefficientSet(mesh, *map(per_elem, (a, b, C, D)))
        chi = descent.PhaseField.from_a_indicator(per_elem(is_a))
        return subproblem.assemble(mesh, coeffs, chi)

    pc = problem(coarse, lambda v: v)
    pf = problem(fine, lambda v: v[fine.parent])
    P, R = fine.prolongation
    assert P.shape == (pf.n_dof, pc.n_dof)
    assert abs(R @ pf.K @ P - pc.K).max() <= 1e-13 * abs(pc.K).max()
    assert np.abs(R @ pf.f - pc.f).max() <= 1e-13 * np.abs(pc.f).max()


def test_gershgorin_bound_reads_the_operator_data():
    # graded moduli and random phases: on every level but the coarsest, the
    # row sums taken from A.data give the bound abs(A).sum(axis=1) gives,
    # bit for bit, and the inverse diagonal is that of A
    mesh = make_mesh_2d(32)
    x, y = mesh.centers.T
    coeffs = make_coeffs(mesh, a=1.0 + 0.5 * x,
                         b=np.where(y < 0.5, 1.0 + 0.5 * x, 2.0 + x * y),
                         C=[0.0, 0.5, 0.0], D=[0.0, -0.5, 0.0])
    chi = descent.PhaseField.from_a_indicator(
        np.random.default_rng(0).random(mesh.n_elem) < 0.5)
    levels, _ = subproblem._galerkin_levels(
        subproblem.assemble(mesh, coeffs, chi))
    assert len(levels) >= 2
    for A, dinv, rho, _, _ in levels:
        assert dinv.tobytes() == (1.0 / A.diagonal()).tobytes()
        ref = float((abs(A).sum(axis=1).A1 * dinv).max())
        assert np.float64(rho).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=8, deadline=None)
@given(shape=st.sampled_from([(1024,), (512,), (32, 32), (64, 32)]),
       seed=st.integers(0, 2 ** 16))
def test_coarse_stiffness_is_the_galerkin_product(shape, seed):
    # m = exp(2 N(0, 1)) per fine element: on every level down the
    # hierarchy, the coarse mesh's stiffness of the weights summed over
    # each coarse element's children is the triple product R K P
    dim = len(shape)
    mesh = meshmod.build_mesh((1.0, 0.75)[:dim], shape, dim)
    w = mesh.measures * np.exp(2.0 * np.random.default_rng(seed)
                               .standard_normal(mesh.n_elem))
    K, steps = mesh.stiffness(w), 0
    while mesh.prolongation is not None:
        P, R = mesh.prolongation
        w = np.bincount(mesh.parent, w)
        mesh = mesh.coarse
        K_coarse = mesh.stiffness(w)
        assert abs(K_coarse - R @ K @ P).max() \
            <= 1e-13 * abs(K_coarse).max()
        K, steps = K_coarse, steps + 1
    assert steps >= 2


@settings(max_examples=6, deadline=None)
@given(contrast=st.floats(1.0, 100.0), seed=st.integers(0, 2 ** 16))
@example(contrast=100.0, seed=0)
def test_multigrid_iterations_stay_flat(contrast, seed):
    # random phases with moduli 1 and b/a = contrast: at most 25 CG
    # iterations on 16^2, 32^2 and 64^2 cells, and the sparse direct
    # solution to within the CG tolerance (the K-norm error of CG is at
    # most sqrt(cond K) times its residual; measured below 3 tol)
    tol = 1e-10
    for n in (16, 32, 64):
        mesh = make_mesh_2d(n)
        coeffs = make_coeffs(mesh, a=1.0, b=contrast, C=[0.3, 0.5, -0.2],
                             D=[-0.1, -0.5, 0.4])
        rng = np.random.default_rng(seed)
        chi = descent.PhaseField.from_a_indicator(
            rng.random(mesh.n_elem) < 0.5)
        problem = subproblem.assemble(mesh, coeffs, chi)
        u, rep = subproblem.solve(problem, tol=tol)
        assert rep.iterations <= 25, (n, rep.iterations)
        x = problem.to_interior(u)
        x_ref = spla.spsolve(problem.K.tocsc(), -problem.f)
        K = problem.K
        assert np.linalg.norm(K @ x + problem.f) \
            <= tol * np.linalg.norm(problem.f)
        err = x - x_ref
        assert np.sqrt(err @ (K @ err)) \
            <= 100 * tol * np.sqrt(x_ref @ (K @ x_ref))


def test_system_at_most_the_coarsest_size_is_solved_directly():
    mesh = make_mesh_2d(8)
    assert 0 < mesh.n_free_dof <= meshmod.COARSEST_DOF
    assert mesh.prolongation is None
    coeffs = make_coeffs(mesh, a=1.0, b=50.0, C=[1.0, 0.2, -0.5],
                         D=[-1.0, 0.0, 0.5])
    chi = descent.PhaseField.from_a_indicator(
        np.arange(mesh.n_elem) % 3 == 0)
    u, rep = subproblem.solve(subproblem.assemble(mesh, coeffs, chi))
    assert rep.iterations == 1


@pytest.mark.parametrize("dim, n, contrast", [(1, 256, 1.0), (2, 16, 30.0),
                                              (2, 32, 100.0)])
def test_cg_takes_scipys_steps(dim, n, contrast):
    # the package's preconditioned CG against scipy.sparse.linalg.cg with
    # the same V-cycle and the same scaled load: the same solution, bit
    # for bit, in as many iterations
    mesh = make_mesh_1d(n) if dim == 1 else make_mesh_2d(n)
    coeffs = make_coeffs(mesh, a=1.0, b=contrast,
                         C=[0.3, 0.5, -0.2][:mesh.n_comp],
                         D=[-0.1, -0.5, 0.4][:mesh.n_comp])
    chi = descent.PhaseField.from_a_indicator(
        np.random.default_rng(n).random(mesh.n_elem) < 0.5)
    problem = subproblem.assemble(mesh, coeffs, chi)
    u, rep = subproblem.solve(problem)

    s = -np.frexp(np.abs(problem.f).max())[1]
    levels, lu = subproblem._galerkin_levels(problem)
    precond = spla.LinearOperator(
        problem.K.shape, dtype=float,
        matvec=lambda r: subproblem._v_cycle(levels, lu, r))
    steps = []
    x, info = spla.cg(problem.K, -np.ldexp(problem.f, s), rtol=1e-10,
                      atol=0.0, maxiter=20 * problem.n_dof, M=precond,
                      callback=steps.append)
    assert info == 0 and len(steps) > 1
    assert rep.iterations == len(steps)
    assert problem.to_interior(u).tobytes() == np.ldexp(x, -s).tobytes()
