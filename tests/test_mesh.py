"""Mesh geometry, strain operator, windows, test bumps, CSV dumps."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from doublewell import descent, mesh as meshmod, parallel, subproblem
from doublewell.errors import ConfigurationError, ContractViolation

from conftest import make_coeffs, make_mesh_1d, make_mesh_2d


def test_1d_mesh_geometry():
    mesh = make_mesh_1d(10, 2.0)
    assert mesh.n_elem == 10
    assert mesh.n_nodes == 11
    assert np.allclose(mesh.measures, 0.2)
    assert np.isclose(mesh.measures.sum(), 2.0)
    assert mesh.boundary_mask.sum() == 2


def test_2d_mesh_geometry():
    mesh = make_mesh_2d(4)
    assert mesh.n_elem == 2 * 4 * 4
    assert np.isclose(mesh.measures.sum(), 1.0)
    # all boundary nodes flagged
    on_bd = (np.isclose(mesh.nodes, 0.0) | np.isclose(mesh.nodes, 1.0))
    assert np.array_equal(mesh.boundary_mask, on_bd.any(axis=1))


def test_strain_exact_for_linear_displacement_1d():
    mesh = make_mesh_1d(16)
    u = 0.7 * mesh.nodes
    eps = mesh.symmetrized_gradient(u)
    assert np.allclose(eps[:, 0], 0.7)


def test_strain_exact_for_linear_displacement_2d():
    mesh = make_mesh_2d(4)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    u = mesh.nodes @ A.T
    eps = mesh.symmetrized_gradient(u)
    sym = 0.5 * (A + A.T)
    assert np.allclose(eps[:, 0], sym[0, 0])
    assert np.allclose(eps[:, 1], sym[0, 1])
    assert np.allclose(eps[:, 2], sym[1, 1])


def test_frobenius_weights_match_full_matrices():
    mesh = make_mesh_2d(2)
    M = np.array([[1.0, 2.0], [2.0, 5.0]])
    packed = np.array([[1.0, 2.0, 5.0]])
    assert np.isclose(mesh.frob_norm2(packed)[0], np.sum(M * M))


@pytest.mark.parametrize("dim", [1, 2])
def test_frob_dot_is_bitwise_the_weighted_sum(dim):
    # summed component by component from +0.0, as NumPy sums a short
    # axis: every bit agrees, signed zeros included, on whole fields and
    # on single packed rows
    mesh = make_mesh_2d(2) if dim == 2 else make_mesh_1d(2)
    rng = np.random.default_rng(dim)
    x, y = rng.standard_normal((2, 1000, mesh.n_comp)) \
        * 10.0 ** rng.integers(-8, 8, (2, 1000, mesh.n_comp))
    zero = rng.random(x.shape) < 0.4
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    y[:500][zero[500:]] = -0.0
    for xs, ys in ((x, y), (x[::3], y[::3]), (x[7], y[7]), (x[-1], y[-1])):
        ref = ((xs * ys) * mesh.frob_w).sum(-1)
        got = mesh.frob_dot(xs, ys)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _interior_field(mesh, rng):
    """A random interior dof vector x and the displacement it stands for,
    zero on the boundary."""
    x = rng.standard_normal(mesh.n_free_dof)
    u = mesh.zero_displacement()
    u[mesh.free_nodes] = x.reshape(-1, mesh.dim)
    return x, u


def _element_gradients(mesh):
    """The strain gradient of every element, (n_elem, n_comp,
    (dim+1)*dim): its orientation's template, repeated cell by cell."""
    n_orient = len(mesh.strain_templates)
    return np.tile(mesh.strain_templates, (mesh.n_elem // n_orient, 1, 1))


def _strain_matrix(mesh):
    """The strain on the interior dofs as a CSR matrix G of shape
    (n_elem * n_comp, n_free_dof), built from COO triplets of the element
    gradients without their zero entries: row e * n_comp + c holds the
    strain component c of element e, column node * dim + comp the
    interior dofs in the order of `free_nodes`."""
    free_index = np.full(mesh.n_nodes, -1)
    free_index[mesh.free_nodes] = np.arange(mesh.free_nodes.size)
    dof = (np.repeat(free_index[mesh.elements], mesh.dim, axis=1) * mesh.dim
           + np.tile(np.arange(mesh.dim), mesh.dim + 1))
    grad = _element_gradients(mesh)
    rows, _, cols = np.broadcast_arrays(
        np.arange(mesh.n_elem * mesh.n_comp).reshape(mesh.n_elem, -1, 1),
        grad, dof[:, None, :])
    keep = (cols >= 0) & (grad != 0)
    return sp.csr_matrix((grad[keep], (rows[keep], cols[keep])),
                         shape=(mesh.n_elem * mesh.n_comp, mesh.n_free_dof))


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 4)])
def test_strain_matrix_is_the_strain_on_interior_dofs(dim, n):
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    G = _strain_matrix(mesh)
    assert G.shape == (mesh.n_elem * mesh.n_comp, mesh.n_free_dof)
    x, u = _interior_field(mesh, np.random.default_rng(dim))
    assert np.allclose(G @ x, mesh.symmetrized_gradient(u).ravel(),
                       rtol=0.0, atol=1e-12 * np.abs(G @ x).max())


# 1D and 2D meshes, among them one with no interior dof in each dimension
OPERATOR_MESHES = [(1, 1), (1, 16), (2, 1), (2, 8), (2, 16)]


def _same_csr(A, B):
    """A and B hold the same CSR arrays, bit for bit and dtype for dtype."""
    return all(np.array_equal(getattr(A, k), getattr(B, k))
               and getattr(A, k).dtype == getattr(B, k).dtype
               for k in ("indptr", "indices", "data"))


@pytest.mark.parametrize("dim, n", OPERATOR_MESHES)
def test_strain_matrix_is_the_coo_build(dim, n):
    # the COO build of the tests, which the operator references below
    # read, is column by column the strain of each interior basis
    # function, bit for bit, and holds exactly its nonzero entries
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    G = _strain_matrix(mesh)
    strains = np.zeros((mesh.n_elem * mesh.n_comp, mesh.n_free_dof))
    for i in range(mesh.n_free_dof):
        u = mesh.zero_displacement()
        u[mesh.free_nodes] = np.eye(1, mesh.n_free_dof, i).reshape(-1, dim)
        strains[:, i] = mesh.symmetrized_gradient(u).ravel()
    assert G.has_canonical_format
    assert np.array_equal(G.toarray(), strains)
    assert G.nnz == np.count_nonzero(strains)


# the meshes of the bit-for-bit operator tests: 1D and 2D, square and
# rectangular cells, a single cell, odd and even counts, up to 256 x 256
STENCIL_MESHES = [((7,), (1.0,)), ((64,), (1.0,)), ((1, 1), (1.0, 1.0)),
                  ((2, 3), (1.0, 1.0)), ((8, 8), (1.0, 1.0)),
                  ((16, 8), (2.0, 0.25)), ((10, 6), (0.3, 0.7)),
                  ((64, 64), (1.0, 1.0)), ((256, 256), (1.0, 1.0))]


def _awkward(rng, shape):
    """Random floats, a third of them scaled by 1e-300 and a fifth signed
    zeros, with one inf."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 1 / 3] *= 1e-300
    zero = rng.random(shape) < 0.2
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    x.flat[rng.integers(x.size)] = np.inf
    return x


@pytest.mark.parametrize("shape, extents", STENCIL_MESHES)
def test_strain_adjoint_and_norms_are_the_csc_products_bit_for_bit(
        shape, extents):
    # the stencil adds each dof's products in the order of SciPy's CSC
    # product with G^T: every bit agrees, signed zeros, underflow and the
    # infs and NaNs of one inf input included
    dim = len(shape)
    mesh = meshmod.build_mesh(extents, shape, dim)
    G = _strain_matrix(mesh)
    weights = mesh.measures[:, None] * mesh.frob_w
    rng = np.random.default_rng(len(STENCIL_MESHES) * dim + shape[0])
    for X in (rng.standard_normal((mesh.n_elem, mesh.n_comp)),
              1e-300 * rng.standard_normal((mesh.n_elem, mesh.n_comp)),
              _awkward(rng, (mesh.n_elem, mesh.n_comp))):
        with np.errstate(invalid="ignore"):
            ref = G.T @ (weights * X).ravel()
            got = mesh.strain_adjoint(X)
        assert got.shape == (mesh.n_free_dof,)
        assert got.tobytes() == ref.tobytes()
    ref = np.sqrt(G.power(2).T @ weights.ravel())
    assert mesh.basis_strain_norms.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape, extents", STENCIL_MESHES)
def test_symmetrized_gradient_is_the_tiled_einsum_bit_for_bit(shape,
                                                              extents):
    dim = len(shape)
    mesh = meshmod.build_mesh(extents, shape, dim)
    rng = np.random.default_rng(shape[0])
    for u in (rng.standard_normal((mesh.n_nodes, dim)),
              _awkward(rng, (mesh.n_nodes, dim))):
        with np.errstate(invalid="ignore"):
            ref = np.einsum("eck,ek->ec", _element_gradients(mesh),
                            u[mesh.elements].reshape(mesh.n_elem, -1))
            got = mesh.symmetrized_gradient(u)
        assert got.tobytes() == ref.tobytes()


def test_strain_operators_hold_no_per_element_gradient():
    # a 128 x 128 mesh with its basis strain norms and one adjoint retains
    # 2.3 MiB: nodes, elements, measures, centers and two dof vectors.
    # A gradient tiled per element would hold 4.5 MiB more, a strain
    # matrix about 4 MiB more
    X = np.random.default_rng(0).standard_normal((2 * 128 * 128, 3))
    tracemalloc.start()
    try:
        mesh = meshmod.build_mesh((1.0, 1.0), (128, 128), 2)
        mesh.basis_strain_norms
        f = mesh.strain_adjoint(X)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert f.shape == (mesh.n_free_dof,)
    assert retained < 3 * 2**20


def _triple_product(mesh, w):
    """The reference stiffness G^T diag(w (x) frob_w) G, as SciPy's CSR
    products form it."""
    G = _strain_matrix(mesh)
    return (G.T @ (sp.diags((w[:, None] * mesh.frob_w).ravel()) @ G)).tocsr()


@pytest.mark.parametrize("dim, n", OPERATOR_MESHES)
@pytest.mark.parametrize("zeros", [0.0, 0.3, 1.0])
def test_stiffness_is_the_triple_product_bit_for_bit(dim, n, zeros):
    # dyadic extents (rectangular cells in 2D), power-of-two cell counts
    # and weights that are small integers times the measures, a share
    # `zeros` of them 0: every product and sum is exact, so the stencil
    # sums give the triple product's arrays.  K also stores the entries
    # that only zero weights reach, as explicit zeros; the product drops
    # them
    mesh = meshmod.build_mesh((2.0, 0.25)[:dim], (n,) * dim, dim)
    rng = np.random.default_rng(n)
    w = mesh.measures * rng.integers(1, 8, mesh.n_elem)
    w[rng.random(mesh.n_elem) < zeros] = 0.0
    K, ref = mesh.stiffness(w), _triple_product(mesh, w)
    assert K.shape == ref.shape == (mesh.n_free_dof,) * 2
    K.eliminate_zeros()
    assert _same_csr(K, ref)


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit round-off."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


# Entry by entry, K and the triple product each lie within gamma_n S of
# the exact sum, S = |G^T| diag|w (x) frob_w| |G|.  The triple product sums
# at most 8 products (4 elements with a nonzero x-derivative of the row's
# basis function, 4 with a nonzero y-derivative), each rounded twice:
# gamma_9.  The stencil rounds each template entry twice (at most two
# products with the Frobenius weight, a power of two, and their sum), then
# its product with the weight, and sums at most 6 elements: gamma_8.  S
# itself is summed with at most gamma_9 error, from below.
STIFFNESS_ROUND_OFF = (_gamma(8) + _gamma(9)) / (1 - _gamma(9))


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.tuples(st.integers(1, 40)),
                       st.tuples(st.integers(1, 12), st.integers(1, 12))),
       extents=st.lists(st.sampled_from([1.0, 3.0, 0.7, 0.1, 2.5, 1e-3]),
                        min_size=2, max_size=2),
       zeros=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
@example(shape=(8, 8), extents=[3.0, 0.7], zeros=0.0, seed=0)
@example(shape=(1, 2), extents=[1.0, 1.0], zeros=0.3, seed=1)
def test_stiffness_is_the_triple_product_to_round_off(shape, extents, zeros,
                                                      seed):
    # any extents and cell counts, weights random positive or exactly
    # zero: the stencil sums differ from the triple product by round-off
    # alone, within the bound above, and with positive weights K holds
    # the triple product's pattern
    dim = len(shape)
    mesh = meshmod.build_mesh(extents[:dim], shape, dim)
    rng = np.random.default_rng(seed)
    w = mesh.measures * np.exp(rng.standard_normal(mesh.n_elem))
    w[rng.random(mesh.n_elem) < zeros] = 0.0
    K, ref = mesh.stiffness(w), _triple_product(mesh, w)
    assert K.shape == ref.shape == (mesh.n_free_dof,) * 2
    if zeros == 0.0:
        assert all(np.array_equal(getattr(K, k), getattr(ref, k))
                   for k in ("indptr", "indices"))
    absG = abs(_strain_matrix(mesh))
    S = absG.T @ (sp.diags((w[:, None] * mesh.frob_w).ravel()) @ absG)
    assert np.all(abs(K - ref).toarray()
                  <= STIFFNESS_ROUND_OFF * S.toarray())


def test_each_stiffness_owns_its_arrays():
    # a K changed in place (its data, its index order) leaves the plan,
    # and so the next K, as they were
    mesh = make_mesh_2d(8)
    w = mesh.measures * np.exp(np.random.default_rng(0)
                               .standard_normal(mesh.n_elem))
    K = mesh.stiffness(w)
    first = K.copy()
    K.data *= -2.0
    K.indices[:] = K.indices[::-1]
    K.indptr[1:] = 0
    K.has_sorted_indices = False
    K.sort_indices()
    again = mesh.stiffness(w)
    assert _same_csr(again, first)
    assert not any(np.shares_memory(getattr(again, k), getattr(K, k))
                   for k in ("indptr", "indices", "data"))


@pytest.mark.parametrize("dim, shape, extents", [
    (1, (7,), (0.7,)), (2, (5, 3), (3.0, 0.7)), (2, (10, 10), (0.3, 0.3))])
def test_elements_of_one_orientation_share_measure_and_gradient(dim, shape,
                                                                extents):
    # the stiffness templates rest on this: every element is a translate of
    # one of the first cell's, with its measure and gradient bit for bit,
    # also where node differences round differently from cell to cell
    # one template per orientation; the gradient each element applies is
    # read off the strains of the unit displacements of every node dof
    mesh = meshmod.build_mesh(extents, shape, dim)
    n_orient = mesh.n_elem // np.prod(shape)
    assert mesh.strain_templates.shape == (n_orient, mesh.n_comp,
                                           (dim + 1) * dim)
    unit_strains = np.stack([
        mesh.symmetrized_gradient(unit.reshape(-1, dim))
        for unit in np.eye(mesh.n_nodes * dim)])
    local_dofs = (mesh.elements[:, :, None] * dim
                  + np.arange(dim)).reshape(mesh.n_elem, -1)
    grads = unit_strains[local_dofs, np.arange(mesh.n_elem)[:, None]]
    for o in range(n_orient):
        assert np.unique(mesh.measures[o::n_orient]).size == 1
        assert np.unique(grads[o::n_orient], axis=0).shape[0] == 1
        assert np.array_equal(grads[o].T, mesh.strain_templates[o])
    assert np.isclose(mesh.measures.sum(), np.prod(extents), rtol=1e-14)


def test_strain_adjoint_vanishes_for_constant_dual_field():
    mesh = make_mesh_2d(4)
    p = np.tile([1.5, -0.25, 2.0], (mesh.n_elem, 1))
    assert mesh.strain_adjoint(p).shape == (mesh.n_free_dof,)
    assert np.abs(mesh.strain_adjoint(p)).max() < 1e-12
    # the adjoint of the strain: <L* q, x> = integral of q : eps(u) for the
    # displacement u with interior values x
    rng = np.random.default_rng(0)
    x, u = _interior_field(mesh, rng)
    q = rng.standard_normal((mesh.n_elem, 3))
    assert np.isclose(mesh.strain_adjoint(q) @ x, mesh.integrate(
        mesh.frob_dot(q, mesh.symmetrized_gradient(u))), rtol=1e-12)


def test_window_average_preserves_integral():
    mesh = make_mesh_1d(64)
    windows = meshmod.build_windows(mesh, 8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(mesh.n_elem)
    avg = meshmod.window_average(f, mesh, windows)
    assert np.isclose((windows.measures * avg).sum(),
                      (mesh.measures * f).sum())


def test_window_average_of_alternating_field_is_zero():
    mesh = make_mesh_1d(64)
    windows = meshmod.build_windows(mesh, 2)
    f = np.where(np.arange(mesh.n_elem) % 2 == 0, 1.0, -1.0)
    assert np.allclose(meshmod.window_average(f, mesh, windows), 0.0)


def test_window_whole_mesh_gives_global_mean():
    mesh = make_mesh_1d(32)
    windows = meshmod.build_windows(mesh, 32)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(mesh.n_elem)
    avg = meshmod.window_average(f, mesh, windows)
    assert avg.shape == (1,)
    assert np.isclose(avg[0], (mesh.measures * f).sum()
                      / mesh.measures.sum())


def test_window_must_divide():
    mesh = make_mesh_1d(10)
    with pytest.raises(ConfigurationError):
        meshmod.build_windows(mesh, 3)


@pytest.mark.parametrize("extents, shape", [((2.0,), (5,)),
                                            ((1.0, 1.0), (4, 4)),
                                            ((2.0, 0.5), (3, 5))])
def test_interpolation_is_exact_for_affine_fields(extents, shape):
    coarse = meshmod.build_mesh(extents, shape, len(shape))
    fine = meshmod.refine(coarse)
    rng = np.random.default_rng(len(shape))
    c0, c = rng.standard_normal(), rng.standard_normal(len(shape))
    P = meshmod.interpolation(coarse.shape)
    assert P.shape == (fine.n_nodes, coarse.n_nodes)
    assert np.allclose(P @ (c0 + coarse.nodes @ c), c0 + fine.nodes @ c,
                       rtol=0.0, atol=1e-14)


def _point_cells(mesh, points):
    """Point location on float coordinates, the reference for the mesh's
    index maps: the cell that contains each point, (n, dim) indices x
    first, and the point's place in it, in cell widths."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = mesh.extents / mesh.shape
    cell = np.clip((pts / h).astype(int), 0, mesh.shape - 1)
    return cell, pts / h - cell


def _locate_elements(mesh, points):
    """The element that contains each point, by point location."""
    cell, loc = _point_cells(mesh, points)
    if mesh.dim == 1:
        return cell[:, 0]
    quad = cell[:, 1] * mesh.shape[0] + cell[:, 0]
    return 2 * quad + np.where(loc[:, 0] >= loc[:, 1], 0, 1)


def _evaluate_p1(mesh, u, points):
    """A nodal P1 field of `mesh` at `points`, from barycentric
    coordinates in the element that contains each point."""
    elems = mesh.elements[_locate_elements(mesh, points)]
    corners = mesh.nodes[elems]                        # (n, dim+1, dim)
    lhs = np.concatenate([np.ones(corners.shape[:2])[:, None, :],
                          corners.transpose(0, 2, 1)], axis=1)
    rhs = np.concatenate([np.ones((len(points), 1)), points], axis=1)
    lam = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
    return np.einsum("nk,nkc->nc", lam, u[elems])


@pytest.mark.parametrize("dim, n, levels", [(1, 512, 2), (2, 32, 2),
                                            (2, 36, 2), (2, 64, 3)])
def test_prolongations_interpolate_interior_fields(dim, n, levels):
    # each P carries a coarse interior field (zero on the boundary) to its
    # values at the fine interior nodes; walking down `coarse` halves the
    # cells until COARSEST_DOF interior dofs or an odd cell count, where
    # `prolongation` is None
    fine = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    rng = np.random.default_rng(n)
    steps = 0
    while fine.prolongation is not None:
        P, R = fine.prolongation
        coarse = fine.coarse
        assert coarse is fine.coarse
        assert np.array_equal(coarse.shape, fine.shape // 2)
        assert (R != P.T).nnz == 0
        x, u = _interior_field(coarse, rng)
        expected = _evaluate_p1(coarse, u, fine.nodes[fine.free_nodes])
        assert np.allclose((P @ x).reshape(-1, dim), expected, rtol=0.0,
                           atol=1e-13)
        fine = coarse
        steps += 1
    assert steps == levels
    assert fine.n_free_dof <= meshmod.COARSEST_DOF or np.any(fine.shape % 2)


def _solve_with_load(mesh):
    """Solve a two-phase problem whose load is nonzero on `mesh`."""
    coeffs = make_coeffs(mesh, a=1.0, b=3.0, C=[1.0, 0.2, -0.5],
                         D=[-1.0, 0.0, 0.5])
    chi = descent.PhaseField.from_a_indicator(
        np.arange(mesh.n_elem) % 3 == 0)
    return subproblem.solve(subproblem.assemble(mesh, coeffs, chi))


def test_odd_cell_count_beyond_direct_size_raises():
    # 255 cells per axis have no coarser level, leaving 129,032 interior
    # dofs to LU: the solve is a configuration error that names the shape
    fine = meshmod.build_mesh((1.0, 1.0), (255, 255), 2)
    assert fine.prolongation is None
    with pytest.raises(ConfigurationError, match=r"\[255, 255\] cells"):
        _solve_with_load(fine)
    # 127 cells stop it too, but 31,752 dofs are within MAX_DIRECT_DOF:
    # one LU solve
    small = meshmod.build_mesh((1.0, 1.0), (127, 127), 2)
    assert small.n_free_dof <= subproblem.MAX_DIRECT_DOF
    assert small.prolongation is None
    assert _solve_with_load(small)[1].iterations == 1


@pytest.mark.parametrize("shape", [(5,), (4, 3), (7, 8)])
def test_coarse_of_an_odd_cell_count_raises(shape):
    mesh = meshmod.build_mesh((1.0,) * len(shape), shape, len(shape))
    with pytest.raises(ContractViolation, match="even"):
        mesh.coarse


@pytest.mark.parametrize("dim, n", [(1, 6), (2, 2), (2, 6)])
def test_each_coarse_element_has_its_children(dim, n):
    # 2^dim children per coarse element, whose measures sum to its own
    fine = meshmod.build_mesh((1.0, 0.5)[:dim], (2 * n,) * dim, dim)
    coarse = fine.coarse
    assert np.array_equal(coarse.shape, (n,) * dim)
    counts = np.bincount(fine.parent, minlength=coarse.n_elem)
    assert np.array_equal(counts, np.full(coarse.n_elem, 2 ** dim))
    assert np.allclose(np.bincount(fine.parent, fine.measures),
                       coarse.measures, rtol=1e-14, atol=0.0)


def test_prolongation_constant_per_child():
    coarse = make_mesh_2d(2)
    fine = meshmod.refine(coarse)
    vals = np.arange(coarse.n_elem, dtype=float)
    out = vals[fine.parent]
    idx = _locate_elements(coarse, fine.centers)
    assert np.array_equal(out, vals[idx])
    # measure bookkeeping: each coarse element covered exactly
    for e in range(coarse.n_elem):
        assert np.isclose(fine.measures[out == vals[e]].sum(),
                          coarse.measures[e])


@settings(max_examples=60, deadline=None)
@given(half=st.one_of(st.tuples(st.integers(1, 39)),
                      st.tuples(st.integers(1, 39), st.integers(1, 39))),
       log_extents=st.lists(st.floats(-9.0, 9.0), min_size=2, max_size=2),
       pick=st.integers(0, 2**16))
@example(half=(8, 8), log_extents=[-7.0, 0.0], pick=3)
def test_index_maps_are_point_location(half, log_extents, pick):
    # even cell counts and extents from 1e-9 to 1e9: the boundary is the
    # ring of nodes whose coordinates are 0 or the extent, and the parent
    # and window maps are those point location finds for the centres, for
    # any window size that divides the cell counts
    shape = 2 * np.array(half)
    dim = shape.size
    extents = 10.0 ** np.array(log_extents[:dim])
    mesh = meshmod.build_mesh(extents, shape, dim)
    on_bd = (mesh.nodes == 0.0) | (mesh.nodes == extents)
    assert np.array_equal(mesh.boundary_mask, on_bd.any(axis=1))
    assert mesh.boundary_mask.sum() == mesh.n_nodes - np.prod(shape - 1)
    assert np.array_equal(mesh.parent,
                          _locate_elements(mesh.coarse, mesh.centers))
    sizes = [w for w in range(1, shape.min() + 1) if not np.any(shape % w)]
    w = sizes[pick % len(sizes)]
    cell = _point_cells(mesh, mesh.centers)[0] // w
    expected = cell @ np.cumprod(np.r_[1, shape[:-1] // w])
    assert np.array_equal(meshmod.build_windows(mesh, w).elem_window,
                          expected)


def test_test_functions_interior_and_smooth():
    mesh = make_mesh_2d(8)
    bumps = meshmod.default_test_functions(mesh)
    lo = bumps.centers - bumps.radii[:, None]
    hi = bumps.centers + bumps.radii[:, None]
    assert np.all(lo > 0.0) and np.all(hi < mesh.extents[None, :])
    vals = bumps.values_at(mesh.centers)
    assert vals.shape == (bumps.n_test, mesh.n_elem)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# values whose text must round-trip exactly: signed zero, subnormals,
# the extremes of the float range
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
               1.7976931348623157e308, -1e300, 1e-300, 0.1, -1.0 / 3.0]


def test_dump_and_reload_element_field(tmp_path):
    mesh = make_mesh_1d(len(EDGE_FLOATS))
    path = tmp_path / "f.csv"
    vals = np.array(EDGE_FLOATS)
    packed = np.column_stack([vals[::-1], vals])
    meshmod.dump_element_field(path, mesh, {"f": vals, "g": packed})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_center,f,g_0,g_1"
    back = meshmod.read_csv(path, ["x_center", "f", "g_0"])
    assert back["f"].tobytes() == vals.tobytes()
    assert back["g_0"].tobytes() == vals[::-1].tobytes()
    assert back["x_center"].tobytes() == mesh.centers[:, 0].tobytes()


def reference_csv(header, columns):
    """The bytes csv.writer gives for the same table, values formatted as
    repr(float(v))."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))
    return buf.getvalue().encode()


FLOATS = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_FLOATS))


@settings(max_examples=60, deadline=None)
@given(n_cols=st.integers(1, 5), n_rows=st.integers(1, 12), data=st.data())
def test_write_csv_matches_csv_writer_and_reads_back(tmp_path_factory,
                                                     n_cols, n_rows, data):
    columns = [data.draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows))
               for _ in range(n_cols)]
    header = [f"c{j}" for j in range(n_cols)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    meshmod.write_csv(path, header, [np.array(col) for col in columns])
    assert path.read_bytes() == reference_csv(header, columns)
    back = meshmod.read_csv(path, header)
    assert list(back) == header
    for name, col in zip(header, columns):
        assert back[name].tobytes() == np.array(col).tobytes()


@pytest.mark.parametrize("n_rows", [0, 1, meshmod.CSV_BLOCK_ROWS - 1,
                                    meshmod.CSV_BLOCK_ROWS,
                                    meshmod.CSV_BLOCK_ROWS + 1,
                                    3 * meshmod.CSV_BLOCK_ROWS + 1])
def test_write_csv_blocks_are_the_one_shot_bytes(tmp_path, monkeypatch,
                                                 n_rows):
    # on either side of a block boundary, the bytes of the whole table
    # written at once, whether one process formats every block or worker
    # processes share them out
    rng = np.random.default_rng(n_rows)
    columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(
        -300, 300, n_rows) for _ in range(3)]
    header = ["x", "y", "z"]
    path = tmp_path / "t.csv"
    monkeypatch.setattr(meshmod, "CSV_PARALLEL_BLOCKS", 2)
    for cores in (1, 2):
        monkeypatch.setattr(parallel, "_cores", lambda: cores)
        meshmod.write_csv(path, header, columns)
        assert path.read_bytes() == reference_csv(header, columns)


def test_write_csv_memory_is_bounded_by_a_block(tmp_path, monkeypatch):
    # 200,000 rows x 9 columns: formatting the whole table at once peaks
    # at 55 MiB of Python floats and strings; one block is about 1 MiB.
    # The blocks of text this process holds do not grow with the cores.
    monkeypatch.setattr(parallel, "_cores", lambda: 16)
    rng = np.random.default_rng(0)
    columns = [rng.standard_normal(200_000) for _ in range(9)]
    tracemalloc.start()
    try:
        meshmod.write_csv(tmp_path / "big.csv",
                          [f"c{j}" for j in range(9)], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
