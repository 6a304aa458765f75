"""P1 finite elements on segment and structured triangle meshes.

Mass matrices are lumped (row sums) and element integrals use the
one-point midpoint rule throughout, so every quadratic form assembled
here matches the ones the step solvers and the energy audit evaluate.
The 2D mesh splits each cell of a structured rectangle grid into two
right triangles along the same diagonal; together with 1D segments this
keeps every scalar stiffness matrix an M-matrix, which the discrete
maximum principles for concentration and enthalpy rely on.  The direct
solves live here too: in natural node order every scalar P1 matrix is
banded (half bandwidth 1 on a segment, ny + 1 on an nx x ny grid), so
``solve_stiffness_banded`` solves one exactly by LAPACK banded Cholesky,
and ``SPDSolver`` keeps a banded Cholesky factor of a tridiagonal
run-constant operator for the whole run.

Two sparse linear maps, cached on ``Mesh``, carry every element kernel:
``grad_op`` takes nodal values to element gradients and ``mean_op``
takes them to element midpoint values.  Gradients, strains, midpoint
values and their adjoints (nodal loads) are products with these maps or
their transposes, and the run-constant matrices are triple products
``left.T @ kron(diag(vol), local) @ right``.  The scalar stiffness is the
exception: the concentration step reassembles it with a new element
coefficient on every Picard iteration, and one ``bincount`` onto its
cached CSR pattern is 15-25 times cheaper than a triple product (on a
2-core Xeon, 0.04 against 1.0 ms on a 400-node line and 0.13 against
1.9 ms on a 40x40 square).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import (
    LinAlgError,
    cho_solve_banded,
    cholesky_banded,
    solveh_banded,
)

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
    "grad_field",
    "elastic_stiffness",
    "coupling_force_matrix",
    "mean_coupling_matrix",
    "boundary_functional",
    "solve_stiffness_banded",
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
    def grad_op(self) -> sp.csr_matrix:
        """Sparse (ne*dim, n) map from nodal values to element gradients:
        row e*dim + d gives the d-th partial derivative on element e."""
        ne, nv, dim = self.n_elems, self.dim + 1, self.dim
        indptr = np.arange(0, ne * dim * nv + 1, nv)
        indices = np.repeat(self.elems, dim, axis=0).ravel()
        data = np.swapaxes(self.grads, 1, 2).ravel()
        return sp.csr_matrix((data, indices, indptr),
                             shape=(ne * dim, self.n_nodes))

    @cached_property
    def mean_op(self) -> sp.csr_matrix:
        """Sparse (ne, n) map from nodal values to element midpoint values,
        the mean of the element's vertex values."""
        nv = self.dim + 1
        indptr = np.arange(0, self.elems.size + 1, nv)
        data = np.full(self.elems.size, 1.0 / nv)
        return sp.csr_matrix((data, self.elems.ravel(), indptr),
                             shape=(self.n_elems, self.n_nodes))

    # The transposes are cached as well: on a 400-node line, building
    # ``mean_op.T`` took about 20 us, more than the 8 us product with it.
    @cached_property
    def grad_op_t(self) -> sp.csc_matrix:
        return self.grad_op.T

    @cached_property
    def mean_op_t(self) -> sp.csc_matrix:
        return self.mean_op.T

    @cached_property
    def _stiff_csr(self):
        """CSR skeleton of the scalar stiffness: indptr, indices, the
        unit-coefficient value of each element entry, an entry-to-slot
        scatter and the diagonal slots.  Reassembly with a new element
        coefficient is then one bincount, no fresh COO build."""
        nv = self.dim + 1
        unit = np.einsum("ead,ebd->eab", self.grads, self.grads) \
            * self.volumes[:, None, None]
        rows = np.repeat(self.elems, nv, axis=1).reshape(self.n_elems, nv, nv)
        cols = np.swapaxes(rows, 1, 2).ravel()
        rows = rows.ravel()
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
        return indptr, indices, unit.ravel(), scatter, diag_slots

    @cached_property
    def _stiff_band(self):
        """LAPACK upper band layout of the scalar stiffness pattern: the
        half bandwidth kd, the CSR slots on or above the diagonal and
        their flat positions in a column-major (kd+1, n) band, row
        kd - (j - i) and column j for entry (i, j).  Column-major is
        LAPACK's own layout, so the band reaches it without a copy."""
        indptr, indices, _, _, _ = self._stiff_csr
        n = self.n_nodes
        rows = np.repeat(np.arange(n), np.diff(indptr))
        upper = np.flatnonzero(indices >= rows)
        cols = indices[upper].astype(np.int64)
        offset = cols - rows[upper]
        kd = int(offset.max())
        return kd, upper, cols * (kd + 1) + kd - offset

    @property
    def half_bandwidth(self) -> int:
        """Half bandwidth of every scalar P1 matrix in natural node order:
        1 on a segment, ny + 1 on an nx x ny grid."""
        return self._stiff_band[0]

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

    ``values`` has the shape of ``index``; each node accumulates its
    entries in the order they appear, like ``np.add.at``.
    """
    return np.bincount(np.asarray(index).ravel(),
                       weights=np.asarray(values, float).ravel(), minlength=n)


def lump_elements(mesh: Mesh, values) -> np.ndarray:
    """Spread element densities to nodes: each vertex gets vol*value/nv."""
    return mesh.mean_op_t @ (values * mesh.volumes)


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Row-sum lumped mass, one positive weight per node."""
    return mesh.lumped


def vector_lumped_mass(mesh: Mesh) -> np.ndarray:
    """Lumped mass replicated per displacement component, shape (n*dim,)."""
    return np.repeat(mesh.lumped, mesh.dim)


def _stiff_data(mesh: Mesh, coeff) -> np.ndarray:
    _, indices, unit, scatter, _ = mesh._stiff_csr
    coeff = np.asarray(coeff, float)
    if coeff.ndim == 0:
        vals = unit * float(coeff)
    else:
        if coeff.shape != (mesh.n_elems,):
            raise ConfigError("coefficient must be scalar or one value per element")
        vals = unit * np.repeat(coeff, (mesh.dim + 1) ** 2)
    return np.bincount(scatter, weights=vals, minlength=indices.size)


def stiffness(mesh: Mesh, coeff=1.0) -> sp.csr_matrix:
    """Scalar stiffness with a per-element (or constant) coefficient."""
    indptr, indices, _, _, _ = mesh._stiff_csr
    data = _stiff_data(mesh, coeff)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def stiffness_with_diag(mesh: Mesh, coeff, diag: np.ndarray) -> sp.csr_matrix:
    """Stiffness plus a nodal diagonal, assembled in one pass.

    Equivalent to ``diags(diag) + stiffness(mesh, coeff)`` but without
    building and merging two sparse matrices; the concentration solver
    calls this once per Picard iteration.
    """
    indptr, indices, _, _, diag_slots = mesh._stiff_csr
    data = _stiff_data(mesh, coeff)
    data[diag_slots] += diag
    return sp.csr_matrix((data, indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def grad_stiffness_vector(mesh: Mesh, coeff, nodal: np.ndarray) -> np.ndarray:
    """Assemble the load f_i = sum_e vol_e c_e grad(nodal)_e . grad N_i.

    This is the action of a stiffness with coefficient ``coeff`` without
    building the matrix; used for the cross-gradient fluxes.
    """
    flux = np.asarray(coeff, float)[:, None] * grad_field(mesh, nodal) \
        * mesh.volumes[:, None]
    return mesh.grad_op_t @ flux.ravel()


def grad_field(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Constant P1 gradient per element, shape (ne, dim)."""
    g = mesh.grad_op @ np.asarray(nodal, float)
    return g.reshape(mesh.n_elems, mesh.dim)


def elem_mean(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Midpoint value of a P1 field, the mean of its vertex values."""
    return mesh.mean_op @ np.asarray(nodal, float)


# ---------------------------------------------------------------------------
# displacement-field assembly


def strain(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Element-constant symmetric gradient, shape (ne, dim, dim).

    ``u`` may be (n, dim) or flat (n*dim,); exact for affine fields.
    """
    u = np.asarray(u, float).reshape(mesh.n_nodes, mesh.dim)
    g = (mesh.grad_op @ u).reshape(mesh.n_elems, mesh.dim, mesh.dim)
    return 0.5 * (g + np.swapaxes(g, -2, -1))


def strain_adjoint(mesh: Mesh, sig: np.ndarray) -> np.ndarray:
    """Nodal force of an element stress field, f = B^T (sig vol).

    Pairs with ``strain``: f . v == sum_e vol_e sig_e : strain(v)_e for
    every nodal vector v (sig must be symmetric).  Returns (n*dim,).
    """
    weighted = np.asarray(sig, float) * mesh.volumes[:, None, None]
    # row (e, d) of grad_op meets column d of each stress row
    flux = np.swapaxes(weighted, 1, 2).reshape(-1, mesh.dim)
    return (mesh.grad_op_t @ flux).ravel()


def _element_form(mesh: Mesh, left, local, right) -> sp.csr_matrix:
    """Matrix of the one-point-quadrature bilinear form
    sum_e vol_e (left v)_e . local (right u)_e, where ``left`` and
    ``right`` map nodal vectors to per-element operand blocks."""
    local = np.atleast_2d(local)
    if local.shape == (1, 1):
        # the same products as the kron below, without its set-up cost
        W = sp.diags(mesh.volumes * local[0, 0], format="csr")
    else:
        W = sp.kron(sp.diags(mesh.volumes), local, format="csr")
    return (left.T @ W @ right).tocsr()


def _vector_grad_op(mesh: Mesh) -> sp.csr_matrix:
    """kron(grad_op, I_dim): flat (n*dim,) displacement to gradient
    entries, row (e*dim + d)*dim + c holding d u_c / d x_d."""
    if mesh.dim == 1:
        return mesh.grad_op
    return sp.kron(mesh.grad_op, sp.identity(mesh.dim), format="csr")


def elastic_stiffness(mesh: Mesh, pair) -> sp.csr_matrix:
    """Vector stiffness of an isotropic 4th-order modulus (Lame pair)."""
    lam, mu = pair
    eye = np.eye(mesh.dim)
    # local[(d, c), (p, q)] pairs du_c/dx_d with dv_q/dx_p:
    # lam div u div v + mu (grad u : grad v + grad u : grad v^T)
    local = (lam * np.einsum("dc,pq->dcpq", eye, eye)
             + mu * np.einsum("dp,cq->dcpq", eye, eye)
             + mu * np.einsum("dq,cp->dcpq", eye, eye))
    G = _vector_grad_op(mesh)
    return _element_form(mesh, G, local.reshape((mesh.dim ** 2,) * 2), G)


def coupling_force_matrix(mesh: Mesh, sig_unit: np.ndarray) -> sp.csr_matrix:
    """Sparse map m -> B^T (sig_unit mean(m) vol), shape (n*dim, n).

    ``sig_unit`` is the constant stress per unit phase fraction, for the
    transformation coupling C eps_tr.
    """
    local = np.asarray(sig_unit, float).T.reshape(-1, 1)
    return _element_form(mesh, _vector_grad_op(mesh), local, mesh.mean_op)


def mean_coupling_matrix(mesh: Mesh, scale: float) -> sp.csr_matrix:
    """Sparse n x n matrix of sum_e vol_e scale mean(m)_e mean(v)_e."""
    return _element_form(mesh, mesh.mean_op, scale, mesh.mean_op)


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
# direct and iterative solves


def _banded(stage: str, routine, *args, **kwargs) -> np.ndarray:
    """Call a LAPACK banded Cholesky routine of ``scipy.linalg``.  A matrix
    that is not positive definite, or a non-finite result (LAPACK passes
    NaN through without complaint), is a ``StepFailure`` naming ``stage``."""
    try:
        out = routine(*args, check_finite=False, **kwargs)
    except LinAlgError as exc:
        raise StepFailure(f"{stage}: banded Cholesky failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise StepFailure(f"{stage}: banded Cholesky gave non-finite values")
    return out


def solve_stiffness_banded(mesh: Mesh, A: sp.csr_matrix, b: np.ndarray,
                           stage: str) -> np.ndarray:
    """Solve A x = b exactly by banded Cholesky in natural node order.

    ``A`` must be symmetric positive definite and carry the scalar
    stiffness pattern of ``mesh``, as ``stiffness`` and
    ``stiffness_with_diag`` return it; only its upper triangle is read.
    The band holds (half_bandwidth + 1) * n doubles.
    """
    kd, upper, pos = mesh._stiff_band
    ab = np.zeros((kd + 1) * mesh.n_nodes)
    ab[pos] = A.data[upper]
    return _banded(stage, solveh_banded,
                   ab.reshape((kd + 1, -1), order="F"), b, overwrite_ab=True)


class SPDSolver:
    """Solves A x = b for one fixed symmetric positive definite matrix.

    The path follows the matrix's own structure.  A tridiagonal matrix
    (every P1 operator on a segment mesh) is factored once by banded
    Cholesky, a factor of 2n doubles, and each ``solve`` is an exact
    back-substitution that reports 0 iterations.  Any other matrix goes
    through Jacobi-preconditioned CG from the given start vector and keeps
    no factor: a sparse factor of the 2D operators would stay resident for
    the whole run.  A factorization that fails, or CG that stalls or meets
    a non-finite value, is a ``StepFailure`` naming ``stage``.
    """

    def __init__(self, A: sp.spmatrix, stage: str = "SPD solve"):
        self.A = A.tocsr()
        self.stage = stage
        n = self.A.shape[0]
        rows = np.repeat(np.arange(n), np.diff(self.A.indptr))
        self.direct = bool(np.all(np.abs(rows - self.A.indices) <= 1))
        self.diag = self.A.diagonal()
        self.max_iter = 200 + 10 * n
        if self.direct:
            band = np.zeros((2, n))
            band[0, 1:] = self.A.diagonal(1)
            band[1] = self.diag
            self.factor = _banded(stage, cholesky_banded, band)

    def solve(self, b: np.ndarray, x0: np.ndarray, rel_tol: float):
        """Return (x, CG iterations).  ``x0`` and ``rel_tol`` (relative to
        the norm of b) apply only to the CG path."""
        if self.direct:
            return _banded(self.stage, cho_solve_banded,
                           (self.factor, False), b), 0
        return _pcg(self.A, b, x0, self.diag, rel_tol, self.max_iter,
                    self.stage)


def _pcg(A, b, x0, diag, rel_tol, max_iter, stage):
    """Jacobi-preconditioned conjugate gradients, deterministic.  The
    breakdown and stall tests are written so that NaN fails them."""
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
        if not pAp > 0.0:
            break
        a = rz / pAp
        x += a * p
        r -= a * Ap
        z = r / diag
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = np.sqrt(r @ r)
    if not res <= stop:
        raise StepFailure(
            f"{stage}: CG stalled at residual {res:.3e} (target {stop:.3e})")
    return x, max_iter
