"""Structured simplicial meshes in 1D/2D with constant-strain elements.

Displacements are nodal arrays of shape (n_nodes, dim), strains and dual
(stress-like) fields are per-element packed symmetric matrices:

    1D: 1 component  [xx]                 Frobenius weights [1]
    2D: 3 components [xx, xy, yy]         Frobenius weights [1, 2, 1]

All quadrature is exact because every integrand handled here is constant
per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import parallel
from .errors import ConfigurationError, ContractViolation


@dataclass(frozen=True)
class StencilPlan:
    """The interior-dof stiffness of a structured mesh as a stencil.  Its
    entries e = (a, s, b) run in (a, s, b) order: row (r, a) of K, for
    interior node r and component a, holds entry e in the column of
    component b of the neighbour r + offset s, wherever that neighbour is
    interior.  The offsets are sorted, so a row's entries run in column
    order.

    terms: per entry, its element contributions in a fixed order, each
        (index, value): the element weights, as an array over the cells
        and orientations, read at `index` (one per interior node) times
        the template value.
    slot: (entries,) the offset s of each entry.
    components: per component a, the slice of its entries.
    cols: (entries,) int32, each entry's column less its row node's
        first dof.
    interior: (nodes...) bool, the interior nodes of the node grid.
    windows: per offset s, the index of `interior` that reads it at
        r + offset s for every interior node r.
    """
    terms: tuple
    slot: np.ndarray
    components: tuple
    cols: np.ndarray
    interior: np.ndarray
    windows: tuple


@dataclass
class StructuredMesh:
    dim: int
    extents: np.ndarray            # physical lengths per axis
    shape: np.ndarray              # element cells per axis (quads in 2D)
    nodes: np.ndarray              # (n_nodes, dim)
    elements: np.ndarray           # (n_elem, dim+1) node indices
    measures: np.ndarray           # (n_elem,)
    centers: np.ndarray            # (n_elem, dim)
    boundary_mask: np.ndarray      # (n_nodes,) bool
    grad: np.ndarray               # (n_elem, n_comp, (dim+1)*dim)
    frob_w: np.ndarray             # Frobenius weights per packed component

    def __post_init__(self):
        if not (np.all((self.measures > 0) & (self.measures < np.inf))
                and np.isfinite(self.grad).all()):
            raise ConfigurationError(
                f"extents {self.extents.tolist()} over {self.shape.tolist()}"
                " cells give element measures or strain gradients that "
                "float64 cannot hold")

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elem(self):
        return self.elements.shape[0]

    @property
    def n_comp(self):
        return self.frob_w.shape[0]

    @property
    def free_nodes(self):
        return np.nonzero(~self.boundary_mask)[0]

    @property
    def n_free_dof(self):
        return self.free_nodes.size * self.dim

    def zero_displacement(self):
        return np.zeros((self.n_nodes, self.dim))

    def check_displacement(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_nodes, self.dim):
            raise ContractViolation(
                f"displacement shape {u.shape} does not conform to mesh "
                f"({self.n_nodes}, {self.dim})")
        return u

    def check_element_field(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n_elem, self.n_comp):
            raise ContractViolation(
                f"element field shape {p.shape} does not conform to mesh "
                f"({self.n_elem}, {self.n_comp})")
        return p

    # -- symmetric-matrix algebra on packed fields ------------------------

    def frob_dot(self, x, y):
        """Frobenius inner product per element of packed fields (or rows),
        summed from +0.0 and component 0 on, as NumPy sums a short axis."""
        return sum((x[..., k] * y[..., k] * wk
                    for k, wk in enumerate(self.frob_w)), 0.0)

    def frob_norm2(self, x):
        return self.frob_dot(x, x)

    def l2_norm(self, p):
        """L2(Omega) norm of a per-element packed field."""
        p = self.check_element_field(p)
        return float(np.sqrt((self.measures * self.frob_norm2(p)).sum()))

    def integrate(self, values):
        """Integral of a per-element scalar field."""
        return float((self.measures * np.asarray(values)).sum())

    # -- kinematics -------------------------------------------------------

    def symmetrized_gradient(self, u):
        """Per-element strain of a nodal displacement field."""
        u = self.check_displacement(u)
        elem_dofs = u[self.elements].reshape(self.n_elem, -1)
        return np.einsum("eck,ek->ec", self.grad, elem_dofs)

    @cached_property
    def strain_matrix(self):
        """The strain on the interior dofs as a sparse CSR matrix G of shape
        (n_elem * n_comp, n_free_dof): row e * n_comp + c holds grad[e, c]
        at the element's interior dofs, numbered node * dim + comp in the
        order of `free_nodes`.  So G x is eps(u) packed and raveled, for u
        the displacement with interior values x and zero on the boundary.
        It depends on the geometry alone, so it is built once per mesh.

        Its rows are already in (element, component) order, so the CSR
        arrays are read off `grad` directly, with int32 indices sorted in
        place: no COO triplets and no duplicate summing."""
        free_index = np.full(self.n_nodes, -1, dtype=np.int32)
        free_index[self.free_nodes] = np.arange(self.free_nodes.size)
        # interior dof of each local dof, node-major as in `grad`; negative
        # on boundary nodes
        dof = (np.repeat(free_index[self.elements], self.dim, axis=1)
               * self.dim
               + np.tile(np.arange(self.dim, dtype=np.int32), self.dim + 1))
        keep = (dof[:, None, :] >= 0) & (self.grad != 0)
        indices = np.broadcast_to(dof[:, None, :], keep.shape)[keep]
        indptr = np.zeros(keep.shape[0] * keep.shape[1] + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(keep.sum(axis=2))
        G = sp.csr_matrix((self.grad[keep], indices, indptr),
                          shape=(self.n_elem * self.n_comp, self.n_free_dof))
        G.sort_indices()
        return G

    def strain_adjoint(self, X):
        """Discrete adjoint of the strain, G^T (|T| frob_w X): the integral
        of X : eps(phi_i) for every interior basis function phi_i, as an
        (n_free_dof,) vector in the dof order of `strain_matrix`."""
        return self.strain_matrix.T @ (self.measures[:, None] * self.frob_w
                                       * X).ravel()

    @cached_property
    def basis_strain_norms(self):
        """L2 norms of eps(phi_i) for every interior basis function, as an
        (n_free_dof,) vector in the dof order of `strain_matrix`.  Equals
        sqrt(diag K) for the unit-coefficient operator."""
        return np.sqrt(self.strain_matrix.power(2).T
                       @ (self.measures[:, None] * self.frob_w).ravel())

    @cached_property
    def stencil_plan(self):
        """The fixed part of every `stiffness` of this mesh, built on first
        use.  Every element of one orientation (one in 1D, two in 2D) is a
        translate of the first cell's, so its local matrix is its weight
        times that element's template."""
        cells = tuple(self.shape[::-1].tolist())   # array axes, x last
        inner = tuple(n - 1 for n in cells)        # interior node grid
        n_orient = self.n_elem // int(np.prod(cells))
        # local node offsets (n_orient, dim + 1, dim) on the node grid: the
        # first cell's lower corner is node 0
        offsets = np.stack(np.unravel_index(
            self.elements[:n_orient], tuple(n + 1 for n in cells)), axis=-1)
        slots = np.unique((offsets[:, None] - offsets[:, :, None])
                          .reshape(-1, self.dim), axis=0)
        slot_of = {tuple(d): s for s, d in enumerate(slots.tolist())}
        g = self.grad[:n_orient]
        templates = ((g[:, :, :, None] * self.frob_w[:, None, None])
                     * g[:, :, None, :]).sum(axis=1).reshape(
            n_orient, self.dim + 1, self.dim, self.dim + 1, self.dim)
        terms = {}
        for o, local in enumerate(offsets.tolist()):
            for k, off_k in enumerate(local):
                # the cells whose local node k is interior, row by row
                index = tuple(slice(1 - d, n - d)
                              for d, n in zip(off_k, cells)) + (o,)
                for l, off_l in enumerate(local):
                    s = slot_of[tuple(q - p for p, q in zip(off_k, off_l))]
                    block = templates[o, k, :, l, :]
                    for a, b in np.argwhere(block).tolist():
                        terms.setdefault((a, s, b), []).append(
                            (index, block[a, b]))
        keys = sorted(terms)
        comp, slot, col_comp = np.array(keys).T
        strides = [int(np.prod(inner[ax + 1:])) for ax in range(self.dim)]
        bounds = np.searchsorted(comp, np.arange(self.dim + 1)).tolist()
        return StencilPlan(
            tuple(tuple(terms[key]) for key in keys), slot,
            tuple(map(slice, bounds[:-1], bounds[1:])),
            ((slots[slot] * strides).sum(axis=1) * self.dim
             + col_comp).astype(np.int32),
            ~self.boundary_mask.reshape(tuple(n + 1 for n in cells)),
            tuple(tuple(slice(1 + d, 1 + d + n) for d, n in zip(ds, inner))
                  for ds in slots.tolist()))

    def stiffness(self, w):
        """The interior-dof stiffness G^T diag(w (x) frob_w) G of per-element
        weights w = |T| m, for G the `strain_matrix`: every multigrid
        level's operator.

        Built from `stencil_plan`: each entry of the stencil is the sum of
        its element contributions, in the plan's fixed order, for every
        interior node at once; one masked gather reads K's CSR data off
        the stencil.  No sparse product and no index sort.  Each call
        builds its own CSR arrays, so no K shares one with the plan or
        with another K."""
        plan = self.stencil_plan
        w = np.asarray(w).reshape(*self.shape[::-1], -1)
        # the entries K holds: those whose neighbour is interior
        mask = np.stack([plan.interior[window] for window in plan.windows],
                        axis=-1)[..., plan.slot]
        inner = mask.shape[:-1]
        # the index arrays before the stencil: built after it, they left
        # the allocator holding about 2 MiB more at the finest solve
        n_dof = self.n_free_dof
        first_dof = np.arange(0, n_dof, self.dim, dtype=np.int32)
        indices = (first_dof.reshape(inner)[..., None] + plan.cols)[mask]
        indptr = np.zeros(n_dof + 1, dtype=np.int32)
        np.cumsum(np.stack([mask[..., entries].sum(axis=-1, dtype=np.int32)
                            for entries in plan.components], axis=-1),
                  out=indptr[1:])
        stencil = np.empty((len(plan.terms), *inner))
        for e, ((index, value), *rest) in enumerate(plan.terms):
            np.multiply(w[index], value, out=stencil[e])
            for index, value in rest:
                stencil[e] += w[index] * value
        data = np.moveaxis(stencil, 0, -1)[mask]
        K = sp.csr_matrix((data, indices, indptr), shape=(n_dof, n_dof))
        K.has_sorted_indices = True
        return K

    @cached_property
    def coarse(self):
        """The mesh that `refine` maps onto this one, built once; a mesh with
        an odd cell count is not nested in one."""
        if np.any(self.shape % 2):
            raise ContractViolation(f"a mesh of {self.shape.tolist()} cells "
                                    "is not nested: cell counts must be even")
        return build_mesh(self.extents, self.shape // 2, self.dim)

    @cached_property
    def parent(self):
        """The element of `coarse` that contains each element, so a field v
        of `coarse` reads v[parent] here."""
        return self.coarse.locate_elements(self.centers)

    @cached_property
    def prolongation(self):
        """The CSR pair (P, P^T), P the P1 interpolation of the interior dofs
        (node * dim + comp) of `coarse` to this mesh's; None on a coarsest
        multigrid level: at most COARSEST_DOF interior dofs, or an odd axis."""
        if self.n_free_dof <= COARSEST_DOF or np.any(self.shape % 2):
            return None
        coarse = self.coarse
        P_node = interpolation(coarse.shape)[self.free_nodes]
        P = sp.kron(P_node[:, coarse.free_nodes], sp.identity(self.dim),
                    format="csr")
        return P, P.T.tocsr()

    def locate_elements(self, points):
        """Element index containing each query point (structured lookup)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.extents / self.shape
        cell = np.clip((pts / h).astype(int), 0, self.shape - 1)
        if self.dim == 1:
            return cell[:, 0]
        nx = self.shape[0]
        quad = cell[:, 1] * nx + cell[:, 0]
        loc = pts / h - cell
        tri = np.where(loc[:, 0] >= loc[:, 1], 0, 1)
        return 2 * quad + tri


# extents that float64 cannot mesh overflow here; StructuredMesh rejects them
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def build_mesh(extents, resolution, dim):
    """Uniform mesh of an interval (1D) or a rectangle split into right
    triangles (2D)."""
    if dim not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {dim}")
    extents = np.atleast_1d(np.asarray(extents, dtype=float))[:dim]
    resolution = np.atleast_1d(np.asarray(resolution, dtype=int))[:dim]
    if extents.size != dim or resolution.size != dim:
        raise ConfigurationError("extents/resolution do not match dimension")
    if np.any(extents <= 0):
        raise ConfigurationError(f"extents must be positive, got {extents}")
    if np.any(resolution < 1):
        raise ConfigurationError(
            f"resolution must be at least 1 per axis, got {resolution}")

    if dim == 1:
        (length,), (ne,) = extents, resolution
        nodes = np.linspace(0.0, length, ne + 1)[:, None]
        elements = np.stack([np.arange(ne), np.arange(ne) + 1], axis=1)
        h = length / ne
        measures = np.full(ne, h)
        centers = 0.5 * (nodes[elements[:, 0], 0] + nodes[elements[:, 1], 0])
        boundary = np.zeros(ne + 1, dtype=bool)
        boundary[[0, -1]] = True
        grad = np.zeros((ne, 1, 2))
        grad[:, 0, 0] = -1.0 / h
        grad[:, 0, 1] = 1.0 / h
        return StructuredMesh(1, extents, resolution, nodes, elements,
                              measures, centers[:, None], boundary, grad,
                              np.array([1.0]))

    (lx, ly), (nx, ny) = extents, resolution
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    n00, n10 = nid(ii, jj), nid(ii + 1, jj)
    n01, n11 = nid(ii, jj + 1), nid(ii + 1, jj + 1)
    # quad q -> triangles 2q (lower) and 2q+1 (upper), split along n00-n11
    tris = np.empty((2 * nx * ny, 3), dtype=int)
    tris[0::2] = np.stack([n00, n10, n11], axis=1)
    tris[1::2] = np.stack([n00, n11, n01], axis=1)

    p0, p1, p2 = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
    centers = (p0 + p1 + p2) / 3.0

    # every element is a translate of one of the first quad's two
    # triangles and takes its measure and P1 barycentric gradients bit for
    # bit (node differences elsewhere would round differently)
    p0, p1, p2 = p0[:2], p1[:2], p2[:2]
    det = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
           - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    measures = np.tile(0.5 * np.abs(det), nx * ny)
    dldx = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1],
                     p0[:, 1] - p1[:, 1]], axis=1) / det[:, None]
    dldy = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0],
                     p1[:, 0] - p0[:, 0]], axis=1) / det[:, None]
    grad = np.zeros((2, 3, 6))
    for k in range(3):
        grad[:, 0, 2 * k] = dldx[:, k]                  # eps_xx
        grad[:, 1, 2 * k] = 0.5 * dldy[:, k]            # eps_xy
        grad[:, 1, 2 * k + 1] = 0.5 * dldx[:, k]
        grad[:, 2, 2 * k + 1] = dldy[:, k]              # eps_yy
    grad = np.tile(grad, (nx * ny, 1, 1))
    boundary = ((np.isclose(nodes[:, 0], 0.0)) | (np.isclose(nodes[:, 0], lx))
                | (np.isclose(nodes[:, 1], 0.0))
                | (np.isclose(nodes[:, 1], ly)))
    return StructuredMesh(2, extents, resolution, nodes, tris, measures,
                          centers, boundary, grad, np.array([1.0, 2.0, 1.0]))


def refine(mesh):
    """Uniform refinement by factor 2 per axis."""
    return build_mesh(mesh.extents, mesh.shape * 2, mesh.dim)


# Interior systems of at most this many dofs are the coarsest level of the
# multigrid hierarchy, which is solved by LU.
COARSEST_DOF = 200


def interpolation(coarse_shape):
    """P1 interpolation of nodal values from the mesh of `coarse_shape`
    cells per axis to its refinement: a sparse (fine nodes, coarse nodes)
    matrix in the node numbering of `build_mesh`.

    Along an axis, a fine node at an even index sits on a coarse node and
    one at an odd index halfway between two.  So every fine node is the
    mean of two coarse nodes: the one at half its indices, rounded down,
    and the one offset from it by 1 along each odd axis (the same node
    when no axis is odd).  A 2D node odd in both indices is the midpoint of
    the n00-n11 diagonal along which both meshes split their quads: the
    meshes are nested and the interpolation is exact.
    """
    coarse_shape = np.asarray(coarse_shape)
    dim = coarse_shape.size
    # per-axis indices of the fine nodes, axis 0 running fastest
    idx = np.indices(tuple(2 * coarse_shape[::-1] + 1)).reshape(dim, -1)[::-1]
    stride = np.cumprod(np.r_[1, coarse_shape[:-1] + 1])
    lo = idx // 2
    cols = np.concatenate([stride @ lo, stride @ (lo + idx % 2)])
    n_fine = idx.shape[1]
    return sp.csr_matrix(
        (np.full(2 * n_fine, 0.5), (np.tile(np.arange(n_fine), 2), cols)),
        shape=(n_fine, int(np.prod(coarse_shape + 1))))


# -- windowed averaging ---------------------------------------------------

@dataclass
class Windows:
    elem_window: np.ndarray    # (n_elem,) window index per element
    measures: np.ndarray       # (n_windows,)
    centers: np.ndarray        # (n_windows, dim)

    @property
    def n_windows(self):
        return self.measures.shape[0]


def build_windows(mesh, window_size):
    """Partition the element cells into square windows of `window_size`
    cells per axis."""
    if window_size < 1:
        raise ConfigurationError("window size must be >= 1")
    if np.any(mesh.shape % window_size != 0):
        raise ConfigurationError(
            f"window size {window_size} does not divide element counts "
            f"{tuple(mesh.shape.tolist())}")
    wshape = mesh.shape // window_size
    wcell = (mesh.centers / (mesh.extents / mesh.shape)).astype(int) \
        // window_size
    widx = wcell @ np.cumprod(np.r_[1, wshape[:-1]])
    windows = Windows(widx, np.bincount(widx, weights=mesh.measures,
                                        minlength=int(np.prod(wshape))), None)
    windows.centers = window_average(mesh.centers, mesh, windows)
    return windows


def window_average(values, mesh, windows):
    """Measure-weighted window means of a per-element field.

    Preserves the global integral exactly:  sum_w |w| * mean_w = integral.
    """
    values = np.asarray(values, dtype=float)
    means = [np.bincount(windows.elem_window, weights=mesh.measures * v,
                         minlength=windows.n_windows) / windows.measures
             for v in values.reshape(len(values), -1).T]
    return np.stack(means, axis=-1).reshape((-1,) + values.shape[1:])


def window_expand(window_values, windows):
    """Map per-window values back onto elements."""
    return np.asarray(window_values)[windows.elem_window]


# -- smooth test bumps ----------------------------------------------------

@dataclass
class TestFunctionSet:
    """Radial mollifier bumps used by the refinement pairing diagnostic.

    Each bump vanishes (with all derivatives) outside its ball, so it is
    an admissible smooth test function as long as the ball stays inside
    the domain.
    """
    centers: np.ndarray        # (n_test, dim)
    radii: np.ndarray          # (n_test,)

    @property
    def n_test(self):
        return self.centers.shape[0]

    def values_at(self, points):
        """Bump values, shape (n_test, n_points)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((pts[None, :, :] - self.centers[:, None, :]) ** 2).sum(axis=2)
        s2 = d2 / self.radii[:, None] ** 2
        out = np.zeros_like(s2)
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out


def default_test_functions(mesh):
    """Three interior bumps scaled to the domain."""
    fractions = np.linspace(0.3, 0.7, 3)
    centers = fractions[:, None] * mesh.extents[None, :]
    radii = np.full(3, 0.25 * mesh.extents.min())
    return TestFunctionSet(centers, radii)


# -- CSV dumps ------------------------------------------------------------

# Rows that `write_csv` formats at once: the text of a few blocks is all
# it holds, whatever the table's length.
CSV_BLOCK_ROWS = 4096
# Blocks from which a table is formatted in forked workers: a fork costs
# about as much as formatting one or two blocks.
CSV_PARALLEL_BLOCKS = 4


def write_csv(path, header, columns):
    """Write equal-length float columns as CSV under a one-line header.

    Each value is written as the shortest text that reads back to the
    same float (`repr`).  Lines end in CRLF.  Rows are formatted
    CSV_BLOCK_ROWS at a time, in worker processes (`parallel.imap`) when
    there are CSV_PARALLEL_BLOCKS blocks or more, and each block is
    written in order as it arrives.  The whole table never exists as
    Python floats or strings at once: this process holds at most
    2 × parallel.MAX_WORKERS + 1 blocks of text.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    n_rows = max((col.size for col in columns), default=0)

    def block(start):
        cells = [map(repr, col[start:start + CSV_BLOCK_ROWS].tolist())
                 for col in columns]
        return "".join(",".join(row) + "\r\n"
                       for row in zip(*cells, strict=True))
    starts = range(0, n_rows, CSV_BLOCK_ROWS)
    run_all = parallel.imap if len(starts) >= CSV_PARALLEL_BLOCKS else map
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(run_all(block, starts))


def read_csv(path, names):
    """The named columns of a numeric CSV written by `write_csv`; the
    other columns are not parsed.  Raises ValueError on a missing column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError(f"no column {', '.join(missing)}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2,
                          usecols=[header.index(n) for n in names])
    return dict(zip(names, data.T))


def field_columns(fields):
    """Header names and float columns of named fields: an (n,) field is one
    column, a packed (n, n_comp) field the columns name_0, name_1, ..."""
    header, columns = [], []
    for name, arr in fields.items():
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 1:
            header.append(name)
            columns.append(arr)
        else:
            header.extend(f"{name}_{k}" for k in range(arr.shape[1]))
            columns.extend(arr.T)
    return header, columns


def dump_element_field(path, mesh, columns):
    """Write per-element fields as CSV after the element centers."""
    header, cols = field_columns(columns)
    write_csv(path, ["x_center", "y_center"][:mesh.dim] + header,
              [*mesh.centers.T, *cols])


def dump_node_field(path, mesh, columns):
    """Write per-node fields as CSV after the node coordinates."""
    header, cols = field_columns(columns)
    write_csv(path, ["x", "y"][:mesh.dim] + header, [*mesh.nodes.T, *cols])
