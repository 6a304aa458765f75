"""P1 finite elements on segment and structured triangle meshes.

Mass matrices are lumped (row sums) and element integrals use the
one-point midpoint rule throughout, so every quadratic form assembled
here matches the ones the step solvers and the energy audit evaluate.
The 2D mesh splits each cell of a structured rectangle grid into two
right triangles along the same diagonal; together with 1D segments this
keeps every scalar stiffness matrix an M-matrix, which the discrete
maximum principles for concentration and enthalpy rely on.  The solver
for the run-constant SPD operators of the step solvers lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, StepFailure

__all__ = [
    "Mesh",
    "build_mesh",
    "lumped_mass",
    "vector_lumped_mass",
    "stiffness",
    "grad_stiffness_vector",
    "strain",
    "strain_adjoint",
    "elem_mean",
    "elem_mean_matrix",
    "grad_field",
    "elastic_stiffness",
    "coupling_force_matrix",
    "mean_coupling_matrix",
    "boundary_functional",
    "SPDSolver",
]

SIDES_1D = ("left", "right")
SIDES_2D = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh with precomputed P1 geometry.

    coords        (n, dim) node coordinates
    elems         (ne, dim+1) node ids per element
    volumes       (ne,) element measures
    grads         (ne, dim+1, dim) constant shape-function gradients
    facets        (nf, dim) node ids per boundary facet
    facet_measure (nf,)
    facet_normal  (nf, dim) outward unit normals
    facet_side    (nf,) integer side label, index into ``sides``
    """

    dim: int
    coords: np.ndarray
    elems: np.ndarray
    volumes: np.ndarray
    grads: np.ndarray
    facets: np.ndarray
    facet_measure: np.ndarray
    facet_normal: np.ndarray
    facet_side: np.ndarray
    sides: tuple[str, ...]
    lengths: tuple[float, ...]
    quadrature: str = "one-point-midpoint"

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]

    @cached_property
    def lumped(self) -> np.ndarray:
        return lump_elements(self, 1.0)

    @cached_property
    def _stiff_pattern(self):
        """Per-entry rows, cols and unit-coefficient values of the scalar
        stiffness, plus the element id of each entry, cached for fast
        reassembly with varying element coefficients."""
        nv = self.dim + 1
        local = np.einsum("ead,ebd->eab", self.grads, self.grads) \
            * self.volumes[:, None, None]
        rows = np.repeat(self.elems, nv, axis=1).reshape(self.n_elems, nv, nv)
        cols = np.swapaxes(rows, 1, 2)
        eids = np.repeat(np.arange(self.n_elems), nv * nv)
        return rows.ravel(), cols.ravel(), local.ravel(), eids

    @cached_property
    def _stiff_csr(self):
        """CSR skeleton of the stiffness sparsity: indptr, indices, a raw
        entry-to-slot scatter and the diagonal slots.  Reassembly with a
        new coefficient is then one bincount, no fresh COO build."""
        rows, cols, _, _ = self._stiff_pattern
        n = self.n_nodes
        key = rows.astype(np.int64) * n + cols
        order = np.argsort(key, kind="stable")
        sk = key[order]
        new = np.empty(sk.size, bool)
        new[0] = True
        new[1:] = sk[1:] != sk[:-1]
        slot = np.cumsum(new) - 1
        scatter = np.empty(sk.size, np.int64)
        scatter[order] = slot
        uniq = sk[new]
        indices = (uniq % n).astype(np.int32)
        counts = np.bincount(uniq // n, minlength=n)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        diag_slots = np.searchsorted(uniq, np.arange(n, dtype=np.int64)
                                     * (n + 1))
        return indptr, indices, scatter, diag_slots

    @cached_property
    def facet_midpoints(self) -> np.ndarray:
        return self.coords[self.facets].mean(axis=1)

    @cached_property
    def elem_midpoints(self) -> np.ndarray:
        return self.coords[self.elems].mean(axis=1)

    def side_facets(self, side: str) -> np.ndarray:
        if side not in self.sides:
            raise ConfigError(f"unknown boundary side {side!r}; have {self.sides}")
        return np.flatnonzero(self.facet_side == self.sides.index(side))


def build_mesh(dim: int, lengths, resolution) -> Mesh:
    """Structured mesh of a segment or rectangle.

    ``resolution`` counts nodes per axis (at least 2).  In 2D each grid
    cell splits into two right triangles along the same diagonal.
    """
    lengths = [float(v) for v in np.atleast_1d(lengths)]
    res = [int(v) for v in np.atleast_1d(resolution)]
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    if len(lengths) != dim or len(res) != dim:
        raise ConfigError("lengths and resolution must have one entry per axis")
    if any(v <= 0 for v in lengths):
        raise ConfigError("domain lengths must be positive")
    if any(n < 2 for n in res):
        raise ConfigError("resolution must be at least 2 nodes per axis")
    if dim == 1:
        return _mesh_1d(lengths[0], res[0])
    return _mesh_2d(lengths, res)


def _mesh_1d(length: float, nx: int) -> Mesh:
    x = np.linspace(0.0, length, nx)
    coords = x[:, None]
    elems = np.stack([np.arange(nx - 1), np.arange(1, nx)], axis=1)
    h = np.diff(x)
    grads = np.empty((nx - 1, 2, 1))
    grads[:, 0, 0] = -1.0 / h
    grads[:, 1, 0] = 1.0 / h
    facets = np.array([[0], [nx - 1]])
    normals = np.array([[-1.0], [1.0]])
    return Mesh(
        dim=1, coords=coords, elems=elems, volumes=h, grads=grads,
        facets=facets, facet_measure=np.ones(2), facet_normal=normals,
        facet_side=np.array([0, 1]), sides=SIDES_1D, lengths=(length,))


def _mesh_2d(lengths, res) -> Mesh:
    lx, ly = lengths
    nx, ny = res
    xs = np.linspace(0.0, lx, nx)
    ys = np.linspace(0.0, ly, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return i * ny + j

    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    elems = np.array(tris, dtype=int)

    p = coords[elems]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    volumes = 0.5 * np.abs(det)
    # gradients of barycentric shape functions
    grads = np.empty((len(elems), 3, 2))
    for loc, (ia, ib) in enumerate([(1, 2), (2, 0), (0, 1)]):
        edge = p[:, ib] - p[:, ia]
        grads[:, loc, 0] = -edge[:, 1] / det
        grads[:, loc, 1] = edge[:, 0] / det

    facets, measures, normals, side_ids = [], [], [], []

    def add_side(ids, normal, side):
        for a, b in zip(ids[:-1], ids[1:]):
            facets.append((a, b))
            measures.append(float(np.linalg.norm(coords[b] - coords[a])))
            normals.append(normal)
            side_ids.append(side)

    add_side([nid(0, j) for j in range(ny)], (-1.0, 0.0), 0)
    add_side([nid(nx - 1, j) for j in range(ny)], (1.0, 0.0), 1)
    add_side([nid(i, 0) for i in range(nx)], (0.0, -1.0), 2)
    add_side([nid(i, ny - 1) for i in range(nx)], (0.0, 1.0), 3)

    return Mesh(
        dim=2, coords=coords, elems=elems, volumes=volumes, grads=grads,
        facets=np.array(facets), facet_measure=np.array(measures),
        facet_normal=np.array(normals), facet_side=np.array(side_ids),
        sides=SIDES_2D, lengths=(lx, ly))


# ---------------------------------------------------------------------------
# scalar-field assembly


def nodal_sum(n: int, index: np.ndarray, values) -> np.ndarray:
    """Sum per-entry values into ``n`` nodes, in input order.

    ``values`` has the shape of ``index`` plus optional trailing component
    axes, which the result keeps: shape (n,) + components.  Each node
    accumulates its entries in the order they appear, like ``np.add.at``.
    """
    index = np.asarray(index)
    vals = np.asarray(values, float)
    flat = vals.reshape(index.size, -1)
    out = np.empty((n, flat.shape[1]))
    for c in range(flat.shape[1]):
        out[:, c] = np.bincount(index.ravel(), weights=flat[:, c], minlength=n)
    return out.reshape((n,) + vals.shape[index.ndim:])


def lump_elements(mesh: Mesh, values) -> np.ndarray:
    """Spread element densities to nodes: each vertex gets vol*value/nv."""
    share = values * mesh.volumes / (mesh.dim + 1)
    return nodal_sum(mesh.n_nodes, mesh.elems,
                     np.broadcast_to(share[:, None], mesh.elems.shape))


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Row-sum lumped mass, one positive weight per node."""
    return mesh.lumped


def vector_lumped_mass(mesh: Mesh) -> np.ndarray:
    """Lumped mass replicated per displacement component, shape (n*dim,)."""
    return np.repeat(mesh.lumped, mesh.dim)


def _stiff_data(mesh: Mesh, coeff) -> np.ndarray:
    _, _, unit, eids = mesh._stiff_pattern
    indptr, indices, scatter, _ = mesh._stiff_csr
    coeff = np.asarray(coeff, float)
    if coeff.ndim == 0:
        vals = unit * float(coeff)
    else:
        if coeff.shape != (mesh.n_elems,):
            raise ConfigError("coefficient must be scalar or one value per element")
        vals = unit * coeff[eids]
    return np.bincount(scatter, weights=vals, minlength=indices.size)


def stiffness(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    """Scalar stiffness with a per-element (or constant) coefficient."""
    indptr, indices, _, _ = mesh._stiff_csr
    data = _stiff_data(mesh, coeff)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def stiffness_with_diag(mesh: Mesh, coeff, diag: np.ndarray) -> sp.csr_matrix:
    """Stiffness plus a nodal diagonal, assembled in one pass.

    Equivalent to ``diags(diag) + stiffness(mesh, coeff)`` but without
    building and merging two sparse matrices; the concentration solver
    calls this once per Picard iteration.
    """
    indptr, indices, _, diag_slots = mesh._stiff_csr
    data = _stiff_data(mesh, coeff)
    data[diag_slots] += diag
    return sp.csr_matrix((data, indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def grad_stiffness_vector(mesh: Mesh, coeff, nodal: np.ndarray) -> np.ndarray:
    """Assemble the load f_i = sum_e vol_e c_e grad(nodal)_e . grad N_i.

    This is the action of a stiffness with coefficient ``coeff`` without
    building the matrix; used for the cross-gradient fluxes.
    """
    g = grad_field(mesh, nodal)
    flux = np.asarray(coeff, float)[:, None] * g * mesh.volumes[:, None]
    contrib = np.einsum("ed,ead->ea", flux, mesh.grads)
    return nodal_sum(mesh.n_nodes, mesh.elems, contrib)


def grad_field(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Constant P1 gradient per element, shape (ne, dim)."""
    vals = np.asarray(nodal, float)[mesh.elems]
    return np.einsum("ea,ead->ed", vals, mesh.grads)


def elem_mean(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Midpoint value of a P1 field, the mean of its vertex values."""
    return np.asarray(nodal, float)[mesh.elems].mean(axis=1)


def elem_mean_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Sparse (ne, n) map from nodal values to element midpoint values."""
    nv = mesh.dim + 1
    rows = np.repeat(np.arange(mesh.n_elems), nv)
    cols = mesh.elems.ravel()
    data = np.full(rows.shape, 1.0 / nv)
    return sp.csr_matrix((data, (rows, cols)), shape=(mesh.n_elems, mesh.n_nodes))


# ---------------------------------------------------------------------------
# displacement-field assembly


def strain(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Element-constant symmetric gradient, shape (ne, dim, dim).

    ``u`` may be (n, dim) or flat (n*dim,); exact for affine fields.
    """
    u = np.asarray(u, float).reshape(mesh.n_nodes, mesh.dim)
    vals = u[mesh.elems]                     # (ne, nv, dim)
    g = np.einsum("eac,ead->ecd", vals, mesh.grads)
    return 0.5 * (g + np.swapaxes(g, -2, -1))


def strain_adjoint(mesh: Mesh, sig: np.ndarray) -> np.ndarray:
    """Nodal force of an element stress field, f = B^T (sig vol).

    Pairs with ``strain``: f . v == sum_e vol_e sig_e : strain(v)_e for
    every nodal vector v (sig must be symmetric).  Returns (n*dim,).
    """
    sig = np.asarray(sig, float)
    weighted = sig * mesh.volumes[:, None, None]
    contrib = np.einsum("ecd,ead->eac", weighted, mesh.grads)
    return nodal_sum(mesh.n_nodes, mesh.elems, contrib).ravel()


def _iso_local_stiffness(mesh: Mesh, pair) -> np.ndarray:
    """Dense local stiffness blocks for an isotropic modulus pair."""
    lam, mu = pair
    g = mesh.grads                                # (ne, nv, dim)
    vol = mesh.volumes
    dot = np.einsum("ead,ebd->eab", g, g)         # grad_i . grad_j
    ne, nv, dim = g.shape
    loc = np.zeros((ne, nv, dim, nv, dim))
    eye = np.eye(dim)
    loc += lam * np.einsum("eac,ebd->eacbd", g, g)
    loc += mu * np.einsum("eab,cd->eacbd", dot, eye)
    loc += mu * np.einsum("ead,ebc->eacbd", g, g)
    return loc * vol[:, None, None, None, None]


def elastic_stiffness(mesh: Mesh, pair) -> sp.csr_matrix:
    """Vector stiffness of an isotropic 4th-order modulus (Lame pair)."""
    loc = _iso_local_stiffness(mesh, pair)
    ne, nv, dim = mesh.n_elems, mesh.dim + 1, mesh.dim
    dofs = (mesh.elems[:, :, None] * dim + np.arange(dim)).reshape(ne, nv * dim)
    rows = np.repeat(dofs[:, :, None], nv * dim, axis=2)
    cols = np.repeat(dofs[:, None, :], nv * dim, axis=1)
    data = loc.reshape(ne, nv * dim, nv * dim)
    mat = sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(mesh.n_nodes * dim,) * 2)
    mat.sum_duplicates()
    return mat


def coupling_force_matrix(mesh: Mesh, sig_unit: np.ndarray) -> sp.csr_matrix:
    """Sparse map m -> B^T (sig_unit mean(m) vol), shape (n*dim, n).

    ``sig_unit`` is the constant stress per unit phase fraction, for the
    transformation coupling C eps_tr.
    """
    ne, nv, dim = mesh.n_elems, mesh.dim + 1, mesh.dim
    contrib = np.einsum("cd,ead->eac", np.asarray(sig_unit, float), mesh.grads) \
        * mesh.volumes[:, None, None] / nv       # (ne, nv, dim) per unit mean
    rows = mesh.elems[:, :, None] * dim + np.arange(dim)      # (ne, nv, dim)
    rows = np.broadcast_to(rows[:, :, :, None], (ne, nv, dim, nv))
    cols = np.broadcast_to(mesh.elems[:, None, None, :], (ne, nv, dim, nv))
    data = np.broadcast_to(contrib[:, :, :, None], (ne, nv, dim, nv))
    mat = sp.csr_matrix(
        (data.ravel(), (np.ascontiguousarray(rows).ravel(),
                        np.ascontiguousarray(cols).ravel())),
        shape=(mesh.n_nodes * dim, mesh.n_nodes))
    mat.sum_duplicates()
    return mat


def mean_coupling_matrix(mesh: Mesh, scale: float) -> sp.csr_matrix:
    """Sparse n x n matrix of sum_e vol_e scale mean(m)_e mean(v)_e."""
    E = elem_mean_matrix(mesh)
    W = sp.diags(mesh.volumes * scale)
    return (E.T @ W @ E).tocsr()


# ---------------------------------------------------------------------------
# boundary terms


def boundary_functional(mesh: Mesh, g, side: str | None = None) -> np.ndarray:
    """Nodal load of the surface integral int_Gamma g v dS for P1 fields.

    ``g`` may be a constant or one value per boundary facet (evaluated at
    facet midpoints).  Each facet spreads g * measure evenly over its
    nodes, which is exact for facet-wise constant g.  With ``side`` the
    integral runs over that named part of the boundary only.
    """
    if side is None:
        idx = np.arange(mesh.facets.shape[0])
    else:
        idx = mesh.side_facets(side)
    g = np.asarray(g, float)
    if g.ndim == 0:
        g = np.full(idx.size, float(g))
    elif g.shape != (idx.size,):
        raise ConfigError("g must be scalar or one value per selected facet")
    facets = mesh.facets[idx]
    share = g * mesh.facet_measure[idx] / facets.shape[1]
    return nodal_sum(mesh.n_nodes, facets,
                     np.broadcast_to(share[:, None], facets.shape))


# ---------------------------------------------------------------------------
# solves with run-constant operators


class SPDSolver:
    """Solves A x = b for one fixed symmetric positive definite matrix.

    The path follows the matrix's own structure.  A tridiagonal matrix
    (every P1 operator on a segment mesh) is solved exactly by sparse LU
    in natural order, which creates no fill, and ``solve`` reports 0
    iterations.  Any other matrix goes through Jacobi-preconditioned CG
    from the given start vector.  No factor is kept between calls: a
    cached SuperLU factor keeps its workspace resident for the whole run,
    which costs more memory than re-solving a tridiagonal system costs
    time.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsr()
        n = self.A.shape[0]
        rows = np.repeat(np.arange(n), np.diff(self.A.indptr))
        self.direct = bool(np.all(np.abs(rows - self.A.indices) <= 1))
        self.diag = self.A.diagonal()
        self.max_iter = 200 + 10 * n

    def solve(self, b: np.ndarray, x0: np.ndarray, rel_tol: float):
        """Return (x, CG iterations).  ``x0`` and ``rel_tol`` (relative to
        the norm of b) apply only to the CG path."""
        if self.direct:
            return spla.spsolve(self.A, b, permc_spec="NATURAL"), 0
        return _pcg(self.A, b, x0, self.diag, rel_tol, self.max_iter)


def _pcg(A, b, x0, diag, rel_tol, max_iter):
    """Jacobi-preconditioned conjugate gradients, deterministic."""
    x = x0.copy()
    r = b - A @ x
    bnorm = np.sqrt(b @ b)
    stop = rel_tol * (bnorm if bnorm > 0.0 else 1.0)
    z = r / diag
    p = z.copy()
    rz = r @ z
    for it in range(max_iter):
        if np.sqrt(r @ r) <= stop:
            return x, it
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            break
        a = rz / pAp
        x += a * p
        r -= a * Ap
        z = r / diag
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    if np.sqrt(r @ r) > stop:
        raise StepFailure(
            f"CG stalled at residual {np.sqrt(r @ r):.3e} (target {stop:.3e})")
    return x, max_iter
