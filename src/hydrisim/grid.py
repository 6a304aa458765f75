"""P1 finite elements on segment and structured triangle meshes.

Mass matrices are lumped (row sums) and element integrals use the
one-point midpoint rule throughout, so every quadratic form assembled
here matches the ones the step solvers and the energy audit evaluate.
The 2D mesh splits each cell of a structured rectangle grid into two
right triangles along the same diagonal; together with 1D segments this
keeps every scalar stiffness matrix an M-matrix, which the discrete
maximum principles for concentration and enthalpy rely on.  The solves
live here too.  In natural node order every scalar P1 matrix is banded
(half bandwidth 1 on a segment, ny + 1 on an nx x ny grid), so
``solve_stiffness_banded`` assembles one straight into a LAPACK band and
solves it exactly by banded Cholesky.  A 2D grid is a tensor product of
two segments (``Mesh.shape`` holds the nodes per axis), so
``tensor_grid_inverse`` inverts a tensor-product model of its scalar
matrices, or of each component of an interleaved vector field, with one
closed-form cosine basis per axis, cached on ``Mesh``.  ``SPDSolver``
solves one fixed SPD matrix by one rule: CG preconditioned by such an
inverse when one is given, which is every 2D grid, and otherwise a
banded Cholesky factor at the matrix's own half bandwidth, kept as long
as the solver.  Both band solves share one layout, ``_band_layout``.

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
from scipy.linalg import get_lapack_funcs

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
    "strain_pairing",
    "elem_mean",
    "grad_field",
    "elastic_stiffness",
    "coupling_force_matrix",
    "vector_grad_op",
    "mean_coupling_matrix",
    "boundary_functional",
    "solve_stiffness_banded",
    "tensor_grid_inverse",
    "SPDSolver",
]

# The float64 LAPACK routines that solveh_banded, cholesky_banded and
# cho_solve_banded call, bound once: with the same data they give the same
# bits without those wrappers' per-call checks and look-up (24-27 us a
# solve against 10.8 us for ?pbtrs alone; 400-node line, 2-core Xeon).
_PTSV, _PBSV, _PBTRF, _PBTRS = get_lapack_funcs(
    ("ptsv", "pbsv", "pbtrf", "pbtrs"))

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
    facet_side    (nf,) integer side label, index into ``sides``
    shape         nodes per axis of the structured grid
    """

    dim: int
    coords: np.ndarray
    elems: np.ndarray
    volumes: np.ndarray
    grads: np.ndarray
    facets: np.ndarray
    facet_measure: np.ndarray
    facet_side: np.ndarray
    sides: tuple[str, ...]
    lengths: tuple[float, ...]
    shape: tuple[int, ...]

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
        """``_band_layout`` of the scalar stiffness pattern."""
        return _band_layout(*self._stiff_csr[:2])

    @cached_property
    def cosine_modes(self) -> tuple:
        """Per axis of ``shape``, the cosine basis V of ``_cosine_modes``,
        its transpose copied to C order and the eigenvalues: the data of
        ``tensor_grid_inverse``, built once per mesh and shared by every
        solve it preconditions."""
        return tuple((V, np.ascontiguousarray(V.T), lam)
                     for V, lam in (_cosine_modes(n, length) for n, length
                                    in zip(self.shape, self.lengths)))

    @property
    def half_bandwidth(self) -> int:
        """Half bandwidth of every scalar P1 matrix in natural node order:
        1 on a segment, ny + 1 on an nx x ny grid."""
        return self._stiff_band[0]


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
    return Mesh(
        dim=1, coords=coords, elems=elems, volumes=h, grads=grads,
        facets=facets, facet_measure=np.ones(2), facet_side=np.array([0, 1]),
        sides=SIDES_1D, lengths=(length,), shape=(nx,))


def _mesh_2d(lengths, res) -> Mesh:
    lx, ly = lengths
    nx, ny = res
    xs = np.linspace(0.0, lx, nx)
    ys = np.linspace(0.0, ly, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel()], axis=1)

    # node (i, j) has id i*ny + j; cell (i, j) with corners a, b, c, d
    # counter-clockwise from (i, j) splits into (a, b, c) and (a, c, d)
    nid = np.arange(nx * ny).reshape(nx, ny)
    a, b = nid[:-1, :-1].ravel(), nid[1:, :-1].ravel()
    c, d = nid[1:, 1:].ravel(), nid[:-1, 1:].ravel()
    elems = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)

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

    # sides in the order of SIDES_2D, each walked by increasing node id
    sides = (nid[0], nid[-1], nid[:, 0], nid[:, -1])
    facets = np.concatenate([np.stack([s[:-1], s[1:]], axis=1)
                             for s in sides])
    per_side = [s.size - 1 for s in sides]
    measures = np.linalg.norm(coords[facets[:, 1]] - coords[facets[:, 0]],
                              axis=1)

    return Mesh(
        dim=2, coords=coords, elems=elems, volumes=volumes, grads=grads,
        facets=facets, facet_measure=measures,
        facet_side=np.repeat(np.arange(len(sides)), per_side),
        sides=SIDES_2D, lengths=(lx, ly), shape=(nx, ny))


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


def _stiff_data_with_diag(mesh: Mesh, coeff, diag: np.ndarray) -> np.ndarray:
    """The CSR values of ``stiffness_with_diag``, in the slot order of
    the cached stiffness pattern."""
    data = _stiff_data(mesh, coeff)
    data[mesh._stiff_csr[4]] += diag
    return data


def stiffness_with_diag(mesh: Mesh, coeff, diag: np.ndarray) -> sp.csr_matrix:
    """Stiffness plus a nodal diagonal, assembled in one pass.

    Equivalent to ``diags(diag) + stiffness(mesh, coeff)`` but without
    building and merging two sparse matrices.
    """
    indptr, indices, _, _, _ = mesh._stiff_csr
    return sp.csr_matrix((_stiff_data_with_diag(mesh, coeff, diag),
                          indices, indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def grad_stiffness_vector(mesh: Mesh, coeff, grad: np.ndarray) -> np.ndarray:
    """Assemble the load f_i = sum_e vol_e c_e grad_e . grad N_i.

    ``grad`` is an element vector field of shape (ne, dim), typically
    ``grad_field(mesh, nodal)``; then this is the action of a stiffness
    with coefficient ``coeff`` on ``nodal`` without building the matrix,
    used for the cross-gradient fluxes.  Taking the gradient lets a
    caller with a fixed ``nodal`` compute it once.
    """
    flux = np.asarray(coeff, float)[:, None] * grad * mesh.volumes[:, None]
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


def strain_pairing(mesh: Mesh, sig: np.ndarray, eps: np.ndarray) -> float:
    """One-point quadrature sum_e vol_e sig_e : eps_e of an element stress
    paired with an element strain, both of shape (ne, dim, dim)."""
    return float(np.einsum("eij,eij,e->", sig, eps, mesh.volumes))


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


def vector_grad_op(mesh: Mesh) -> sp.csr_matrix:
    """kron(grad_op, I_dim): flat (n*dim,) displacement to gradient
    entries, row (e*dim + d)*dim + c holding d u_c / d x_d.  Only set-up
    reads it, so it is not cached on ``Mesh``; a caller assembling
    several displacement forms builds it once and passes it in."""
    if mesh.dim == 1:
        return mesh.grad_op
    return sp.kron(mesh.grad_op, sp.identity(mesh.dim), format="csr")


def elastic_stiffness(mesh: Mesh, pair, G: sp.csr_matrix) -> sp.csr_matrix:
    """Vector stiffness of an isotropic 4th-order modulus (Lame pair).
    ``G`` is ``vector_grad_op(mesh)``."""
    lam, mu = pair
    eye = np.eye(mesh.dim)
    # local[(d, c), (p, q)] pairs du_c/dx_d with dv_q/dx_p:
    # lam div u div v + mu (grad u : grad v + grad u : grad v^T)
    local = (lam * np.einsum("dc,pq->dcpq", eye, eye)
             + mu * np.einsum("dp,cq->dcpq", eye, eye)
             + mu * np.einsum("dq,cp->dcpq", eye, eye))
    return _element_form(mesh, G, local.reshape((mesh.dim ** 2,) * 2), G)


def coupling_force_matrix(mesh: Mesh, sig_unit: np.ndarray,
                          G: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse map m -> B^T (sig_unit mean(m) vol), shape (n*dim, n).

    ``sig_unit`` is the constant stress per unit phase fraction, for the
    transformation coupling C eps_tr.  ``G`` is ``vector_grad_op(mesh)``.
    """
    local = np.asarray(sig_unit, float).T.reshape(-1, 1)
    return _element_form(mesh, G, local, mesh.mean_op)


def mean_coupling_matrix(mesh: Mesh, scale: float) -> sp.csr_matrix:
    """Sparse n x n matrix of sum_e vol_e scale mean(m)_e mean(v)_e."""
    return _element_form(mesh, mesh.mean_op, scale, mesh.mean_op)


# ---------------------------------------------------------------------------
# boundary terms


def boundary_functional(mesh: Mesh, g: float, side: str) -> np.ndarray:
    """Nodal load of the surface integral int_side g v dS for P1 fields,
    for a constant ``g`` on ``side``, one of ``mesh.sides`` (the input
    gate checks the names).  Each facet spreads g * measure evenly over
    its nodes, which is exact."""
    idx = np.flatnonzero(mesh.facet_side == mesh.sides.index(side))
    facets = mesh.facets[idx]
    share = g * mesh.facet_measure[idx] / facets.shape[1]
    return nodal_sum(mesh.n_nodes, facets,
                     np.broadcast_to(share[:, None], facets.shape))


# ---------------------------------------------------------------------------
# direct and iterative solves


def _banded(stage: str, routine, *args, **kwargs) -> np.ndarray:
    """Call a bound LAPACK banded Cholesky routine; return its last array,
    the factor of ?pbtrf or the solution of the others.  A matrix that is
    not positive definite (info > 0), or a non-finite result (LAPACK
    passes NaN through), is a ``StepFailure`` naming ``stage``."""
    *out, info = routine(*args, **kwargs)
    if info > 0:
        raise StepFailure(f"{stage}: banded Cholesky failed: {info}th "
                          "leading minor not positive definite")
    if info < 0:
        raise ValueError(f"{stage}: illegal LAPACK argument {-info}")
    if not np.isfinite(out[-1]).all():
        raise StepFailure(f"{stage}: banded Cholesky gave non-finite values")
    return out[-1]


def _band_layout(indptr: np.ndarray, indices: np.ndarray):
    """LAPACK upper band layout of a symmetric CSR pattern with no
    duplicate entries: the half bandwidth kd, the CSR slots on or above
    the diagonal and their flat positions in a column-major (kd+1, n)
    band, row kd - (j - i) and column j for entry (i, j).  Column-major
    is LAPACK's own layout, so ``_band`` reaches it without a copy."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    upper = np.flatnonzero(indices >= rows)
    cols = indices[upper].astype(np.int64)
    offset = cols - rows[upper]
    kd = int(offset.max())
    return kd, upper, cols * (kd + 1) + kd - offset


def _band(kd: int, pos: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The (kd+1, n) band of ``_band_layout`` holding ``vals``, the
    values of its upper slots, at their flat positions ``pos``."""
    ab = np.zeros((kd + 1) * n)
    ab[pos] = vals
    return ab.reshape((kd + 1, n), order="F")


def solve_stiffness_banded(mesh: Mesh, coeff, diag: np.ndarray,
                           b: np.ndarray, stage: str) -> np.ndarray:
    """Solve A x = b exactly by banded Cholesky in natural node order,
    for A = ``stiffness_with_diag(mesh, coeff, diag)``.

    A must be symmetric positive definite.  The band is filled straight
    from the assembled values of A's upper triangle, with no sparse
    matrix built; it holds (half_bandwidth + 1) * n doubles.  As in
    ``scipy.linalg.solveh_banded``, LAPACK ?ptsv solves a tridiagonal band
    (a segment mesh) and ?pbsv a wider one.
    """
    kd, upper, pos = mesh._stiff_band
    # assemble before the band, the solve's largest array, is allocated:
    # the other order raised the peak RSS of an 8-step 40x40 run by 0.3 MB
    vals = _stiff_data_with_diag(mesh, coeff, diag)[upper]
    ab = _band(kd, pos, vals, mesh.n_nodes)
    if kd == 1:
        return _banded(stage, _PTSV, ab[1], ab[0, 1:], b)
    return _banded(stage, _PBSV, ab, b, overwrite_ab=1)


def _cosine_modes(n: int, length: float):
    """Generalized eigenpairs of the 1D P1 stiffness K and lumped mass D
    on ``n`` uniform nodes: K V = D V diag(lam) with V^T D V = I.  The
    modes are the closed-form cosines V[i, j] = cos(pi i j / (n - 1))
    with lam_j = (4/h^2) sin^2(pi j / (2 (n - 1))), so no eigensolver
    runs."""
    h = length / (n - 1)
    j = np.arange(n)
    V = np.cos(np.pi / (n - 1) * np.outer(j, j))
    norm2 = np.full(n, 0.5 * length)  # v_j^T D v_j
    norm2[[0, -1]] = length
    lam = (4.0 / h ** 2) * np.sin(0.5 * np.pi / (n - 1) * j) ** 2
    return V / np.sqrt(norm2), lam


def tensor_grid_inverse(mesh: Mesh, *models):
    """Exact inverse of a block-diagonal tensor-product model on the 2D
    grid of ``mesh``, as a callable on nodal vectors, or None on a
    segment mesh.

    ``models`` holds one triple (kx, ky, c) per component of a nodal
    vector interleaved node-major (entry node * ncomp + comp, as the
    displacement is stored), and component comp is inverted under
    kx Kx (x) Dy + ky Dx (x) Ky + c Dx (x) Dy.  Kx, Dx are the 1D P1
    stiffness and lumped mass along x (Ky, Dy along y); on the grid the
    scalar P1 stiffness equals Kx (x) Dy + Dx (x) Ky to round-off, and the
    lumped mass is Dx (x) Dy except at the 4 corners.  Both axes are
    diagonalized by their cosine modes (the fast diagonalization method of
    Lynch, Rice & Thomas, 1964), so the inverse of one component is
    Vx ((Vx^T R Vy) / (kx lam_x + ky lam_y + c)) Vy^T for its nodal
    values R as an (nx, ny) array: 4 BLAS matrix products of one axis'
    size, on the bases that ``Mesh.cosine_modes`` keeps.  Requires
    kx, ky >= 0 and c > 0.
    """
    if mesh.dim != 2:
        return None
    (vx, vxt, lx), (vy, vyt, ly) = mesh.cosine_modes
    denoms = [kx * lx[:, None] + ky * ly[None, :] + c
              for kx, ky, c in models]
    shape = mesh.shape + (len(models),)

    def apply(r: np.ndarray) -> np.ndarray:
        r = r.reshape(shape)
        out = np.empty_like(r)
        for comp, denom in enumerate(denoms):
            modal = vxt @ np.ascontiguousarray(r[..., comp]) @ vy
            modal /= denom
            out[..., comp] = vx @ modal @ vyt
        return out.ravel()

    return apply


class SPDSolver:
    """Solves A x = b for one fixed symmetric positive definite matrix.

    The path follows one rule, read from the arguments.  Given
    ``precond``, a map from a residual to the preconditioned residual,
    each ``solve`` runs preconditioned CG from its start vector and no
    factor is kept; ``precond`` should be the inverse of a nearby SPD
    model matrix, such as ``tensor_grid_inverse`` gives for every system
    on a 2D grid.  Given none (``tensor_grid_inverse`` gives None off a
    2D grid, so on every segment mesh), A is factored once by banded
    Cholesky (LAPACK ?pbtrf) at its own half bandwidth kd, a factor of
    (kd + 1) n doubles, and each ``solve`` is an exact back-substitution
    (?pbtrs) that reports 0 iterations.  A factorization that fails, or
    CG that stalls or meets a non-finite value, is a ``StepFailure``
    naming ``stage``; a CG one carries the iterations spent.
    """

    def __init__(self, A: sp.spmatrix, stage: str, precond=None):
        self.A = A.tocsr()
        self.stage = stage
        self.precond = precond
        self.direct = precond is None
        n = self.A.shape[0]
        if self.direct:
            # the band layout needs each entry once
            self.A.sum_duplicates()
            kd, upper, pos = _band_layout(self.A.indptr, self.A.indices)
            self.factor = _banded(stage, _PBTRF,
                                  _band(kd, pos, self.A.data[upper], n),
                                  overwrite_ab=1)
        else:
            rows = np.repeat(np.arange(n), np.diff(self.A.indptr))
            self.a_norm = np.bincount(rows, np.abs(self.A.data), n).max()
            self.max_iter = 200 + 10 * n

    def solve(self, b: np.ndarray, x0: np.ndarray, rel_tol: float):
        """Return (x, CG iterations).  ``x0`` and ``rel_tol`` (relative to
        the norm of b) apply only to the CG path."""
        if self.direct:
            return _banded(self.stage, _PBTRS, self.factor, b), 0
        return _pcg(self.A, b, x0, self.precond, rel_tol, self.max_iter,
                    self.stage, self.a_norm)


def _pcg(A, b, x0, precond, rel_tol, max_iter, stage, a_norm):
    """Preconditioned conjugate gradients, deterministic.  The residual
    is tested before it is preconditioned, so a converged solve spends no
    preconditioner apply on its last residual.  CG's updated residual
    drifts from b - A x by round-off, most from a start far from the
    solution, so ``rel_tol`` is checked on the true residual once the
    updated one meets it; if the true one misses, CG starts again from x
    with it, within the same ``max_iter`` budget.  A true residual below
    eps (``a_norm`` |x| + |b|), with ``a_norm`` the infinity norm of A,
    is rounding noise of its own computation and also ends the solve:
    CG cannot push it lower, so a target below it would only spend the
    budget.  The convergence and breakdown tests are written so that NaN
    fails them."""
    x = x0.copy()
    bnorm = np.sqrt(b @ b)
    stop = rel_tol * (bnorm if bnorm > 0.0 else 1.0)
    eps = np.finfo(float).eps
    it = 0
    while True:
        r = b - A @ x
        if np.sqrt(r @ r) <= max(stop,
                                 eps * (a_norm * np.sqrt(x @ x) + bnorm)):
            return x, it
        z = precond(r)
        p = z.copy()
        rz = r @ z
        while it < max_iter:
            it += 1
            Ap = A @ p
            pAp = p @ Ap
            if not pAp > 0.0:
                break
            a = rz / pAp
            x += a * p
            r -= a * Ap
            if np.sqrt(r @ r) <= stop:
                break
            z = precond(r)
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        # a breakdown or the spent budget leaves the residual above target
        if not np.sqrt(r @ r) <= stop:
            break
    res = np.sqrt(r @ r)
    raise StepFailure(
        f"{stage}: CG stalled at residual {res:.3e} (target {stop:.3e})",
        iterations=it)
