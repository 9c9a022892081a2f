"""Mesh geometry, strain operator, windows, test bumps, CSV dumps."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from doublewell import descent, mesh as meshmod, subproblem
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


@pytest.mark.parametrize("dim, n", [(1, 16), (2, 4)])
def test_strain_matrix_is_the_strain_on_interior_dofs(dim, n):
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    G = mesh.strain_matrix
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
    # the CSR arrays read off `grad` are those of the COO triplet build,
    # with sorted int32 indices
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    free_index = np.full(mesh.n_nodes, -1)
    free_index[mesh.free_nodes] = np.arange(mesh.free_nodes.size)
    dof = (np.repeat(free_index[mesh.elements], dim, axis=1) * dim
           + np.tile(np.arange(dim), dim + 1))
    rows, _, cols = np.broadcast_arrays(
        np.arange(mesh.n_elem * mesh.n_comp).reshape(mesh.n_elem, -1, 1),
        mesh.grad, dof[:, None, :])
    keep = (cols >= 0) & (mesh.grad != 0)
    ref = sp.csr_matrix((mesh.grad[keep], (rows[keep], cols[keep])),
                        shape=(mesh.n_elem * mesh.n_comp, mesh.n_free_dof))
    G = mesh.strain_matrix
    assert G.shape == ref.shape
    assert G.indices.dtype == np.int32 and G.has_sorted_indices
    assert _same_csr(G, ref)


@pytest.mark.parametrize("dim, n", OPERATOR_MESHES)
@pytest.mark.parametrize("zeros", [0.0, 0.3, 1.0])
def test_stiffness_is_the_triple_product_bit_for_bit(dim, n, zeros):
    # one CSR product sums the same products in the same order as
    # G^T (diag(w (x) frob_w) G): the same arrays, no tolerance, also
    # where weights are exactly zero (a share `zeros` of the elements)
    mesh = meshmod.build_mesh((1.0,) * dim, (n,) * dim, dim)
    rng = np.random.default_rng(n)
    w = mesh.measures * np.exp(rng.standard_normal(mesh.n_elem))
    w[rng.random(mesh.n_elem) < zeros] = 0.0
    G = mesh.strain_matrix
    ref = (G.T @ (sp.diags((w[:, None] * mesh.frob_w).ravel())
                  @ G)).tocsr()
    K = mesh.stiffness(w)
    assert K.shape == ref.shape == (mesh.n_free_dof,) * 2
    assert _same_csr(K, ref)


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


def _evaluate_p1(mesh, u, points):
    """A nodal P1 field of `mesh` at `points`, from barycentric
    coordinates in the element that contains each point."""
    elems = mesh.elements[mesh.locate_elements(points)]
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
    idx = coarse.locate_elements(fine.centers)
    assert np.array_equal(out, vals[idx])
    # measure bookkeeping: each coarse element covered exactly
    for e in range(coarse.n_elem):
        assert np.isclose(fine.measures[out == vals[e]].sum(),
                          coarse.measures[e])


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
                                    meshmod.CSV_BLOCK_ROWS + 1])
def test_write_csv_blocks_are_the_one_shot_bytes(tmp_path, n_rows):
    # on either side of a block boundary, the bytes of the whole table
    # written at once
    rng = np.random.default_rng(n_rows)
    columns = [rng.standard_normal(n_rows) * 10.0 ** rng.integers(
        -300, 300, n_rows) for _ in range(3)]
    header = ["x", "y", "z"]
    path = tmp_path / "t.csv"
    meshmod.write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, columns)


def test_write_csv_memory_is_bounded_by_a_block(tmp_path):
    # 200,000 rows x 9 columns: formatting the whole table at once peaks
    # at 55 MiB of Python floats and strings; one block is about 1 MiB
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
