"""Mesh construction and assembly against hand-computed small cases."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hydrisim.grid import (
    SPDSolver,
    boundary_functional,
    build_mesh,
    coupling_force_matrix,
    elastic_stiffness,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lump_elements,
    lumped_mass,
    mean_coupling_matrix,
    nodal_sum,
    stiffness,
    stiffness_with_diag,
    strain,
    strain_adjoint,
    vector_lumped_mass,
)
from hydrisim import diffusion
from hydrisim.constitutive import apply_elastic, desk_default_material
from hydrisim.errors import ConfigError, StepFailure


@pytest.fixture
def line3():
    return build_mesh(1, (1.0,), 3)


@pytest.fixture
def square3():
    return build_mesh(2, (1.0, 1.0), (3, 3))


def test_line3_lumped_mass(line3):
    assert np.allclose(lumped_mass(line3), [0.25, 0.5, 0.25])


def test_line3_stiffness(line3):
    K = stiffness(line3, 1.0).toarray()
    h = 0.5
    ref = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]]) / h
    assert np.allclose(K, ref)


def test_line3_variable_coefficient(line3):
    # per-element coefficients scale each element block
    K = stiffness(line3, np.array([2.0, 3.0])).toarray()
    h = 0.5
    ref = np.array([[2, -2, 0], [-2, 5, -3], [0, -3, 3]]) / h
    assert np.allclose(K, ref)


def test_mesh_rejects_degenerate_resolution():
    with pytest.raises(ConfigError):
        build_mesh(1, (1.0,), 1)
    with pytest.raises(ConfigError):
        build_mesh(2, (1.0, -1.0), (3, 3))


def test_square3_counts(square3):
    assert square3.coords.shape == (9, 2)
    assert square3.elems.shape == (8, 3)
    assert square3.volumes.sum() == pytest.approx(1.0, rel=1e-14)
    assert lumped_mass(square3).sum() == pytest.approx(1.0, rel=1e-14)


def test_square3_stiffness_is_m_matrix(square3):
    K = stiffness(square3, 1.0).toarray()
    off = K - np.diag(np.diag(K))
    assert off.max() <= 1e-14           # right-triangle grid: no positive off-diagonals
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-13)
    eig = np.linalg.eigvalsh(K)
    assert eig.min() >= -1e-12


def test_gradient_patch_test(square3):
    # P1 gradients reproduce affine fields exactly
    f = 2.0 * square3.coords[:, 0] - 3.0 * square3.coords[:, 1] + 0.7
    g = grad_field(square3, f)
    assert np.allclose(g, [2.0, -3.0])
    assert np.allclose(elem_mean(square3, f), g[:, 0] * 0 + elem_mean(square3, f))


def test_strain_affine_patch(square3):
    # u = A x gives constant strain sym(A)
    A = np.array([[0.3, 0.1], [-0.2, 0.5]])
    u = square3.coords @ A.T
    eps = strain(square3, u)
    ref = 0.5 * (A + A.T)
    assert np.allclose(eps, ref[None, :, :])


def test_strain_adjoint_duality(square3):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(18)
    sig = rng.standard_normal((8, 2, 2))
    sig = 0.5 * (sig + np.swapaxes(sig, 1, 2))
    lhs = np.einsum("eij,eij,e->", strain(square3, u), sig, square3.volumes)
    rhs = strain_adjoint(square3, sig) @ u
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_elastic_stiffness_matches_composition(square3):
    mat = desk_default_material(dim=2)
    A = elastic_stiffness(square3, mat.lame).toarray()
    rng = np.random.default_rng(7)
    for _ in range(4):
        u = rng.standard_normal(18)
        ref = strain_adjoint(square3, apply_elastic(mat, strain(square3, u)))
        assert np.allclose(A @ u, ref, atol=1e-13)
    assert np.allclose(A, A.T, atol=1e-14)
    eig = np.linalg.eigvalsh(A)
    assert eig.min() >= -1e-12


def test_elastic_stiffness_1d(line3):
    mat = desk_default_material()
    A = elastic_stiffness(line3, mat.lame).toarray()
    # E = lam + 2 mu = 1 in 1d, so this is the scalar laplacian
    assert np.allclose(A, stiffness(line3, mat.E).toarray())


def test_coupling_force_matrix_consistency(square3):
    mat = desk_default_material(dim=2)
    sig_unit = np.asarray(mat.eps_tr_mat)
    sig_unit = mat.lame[0] * np.trace(sig_unit) * np.eye(2) + 2 * mat.lame[1] * sig_unit
    B = coupling_force_matrix(square3, sig_unit)
    rng = np.random.default_rng(11)
    m = rng.uniform(0, 1, 9)
    u = rng.standard_normal(18)
    ref = np.einsum("eij,ij,e,e->", strain(square3, u), sig_unit,
                    elem_mean(square3, m), square3.volumes)
    assert (B @ m) @ u == pytest.approx(ref, rel=1e-13)


def test_mean_coupling_matrix_quadratic_form(square3):
    W = mean_coupling_matrix(square3, 2.5)
    rng = np.random.default_rng(13)
    m = rng.uniform(0, 1, 9)
    ref = 2.5 * np.sum(square3.volumes * elem_mean(square3, m) ** 2)
    assert m @ (W @ m) == pytest.approx(ref, rel=1e-13)


def test_grad_stiffness_vector_duality(square3):
    # assembled flux of coeff * grad(nodal) tested against the dense form
    rng = np.random.default_rng(17)
    m = rng.uniform(0, 1, 9)
    v = rng.standard_normal(9)
    coeff = rng.uniform(0.5, 2.0, 8)
    f = grad_stiffness_vector(square3, coeff, m)
    gm = grad_field(square3, m)
    gv = grad_field(square3, v)
    ref = np.einsum("e,ei,ei,e->", coeff, gm, gv, square3.volumes)
    assert f @ v == pytest.approx(ref, rel=1e-13)


def test_boundary_functional_unit_square(square3):
    total = sum(boundary_functional(square3, 1.0, side).sum()
                for side in square3.sides)
    assert total == pytest.approx(4.0, rel=1e-14)


def test_boundary_functional_line(line3):
    g = boundary_functional(line3, 2.0, "left")
    assert g[0] == pytest.approx(2.0)
    assert np.all(g[1:] == 0)


def test_vector_lumped_mass_layout(square3):
    mv = vector_lumped_mass(square3)
    ml = lumped_mass(square3)
    assert np.allclose(mv[0::2], ml)
    assert np.allclose(mv[1::2], ml)


def test_stiffness_with_diag_matches_two_pass(square3, line3):
    import scipy.sparse as sp

    rng = np.random.default_rng(3)
    for mesh in (line3, square3):
        c = rng.uniform(0.5, 2.0, mesh.n_elems)
        d = rng.uniform(0.1, 1.0, mesh.n_nodes)
        ref = (sp.diags(d) + stiffness(mesh, c)).toarray()
        got = stiffness_with_diag(mesh, c, d).toarray()
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dim, res, direct", [(1, (40,), True),
                                              (2, (6, 6), False)])
def test_spd_solver_path_and_accuracy(dim, res, direct):
    mesh = build_mesh(dim, (1.0,) * dim, res)
    rng = np.random.default_rng(3)
    A = stiffness_with_diag(mesh, rng.uniform(0.5, 2.0, mesh.n_elems),
                            lumped_mass(mesh) / 1e-3)
    b = rng.normal(size=mesh.n_nodes)
    solver = SPDSolver(A)
    x, iters = solver.solve(b, np.zeros_like(b), 1e-12)
    assert solver.direct is direct
    assert iters == 0 if direct else iters > 0
    ref = spla.spsolve(A.tocsc(), b)
    for y in (x, ref):
        assert np.linalg.norm(A @ y - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


# (3, 130) has kd = 131 > diffusion._BAND_MAX: the SuperLU fallback
@pytest.mark.parametrize("dim, res, kd, banded", [
    (1, (40,), 1, True),
    (2, (9, 9), 10, True),
    (2, (12, 5), 6, True),
    (2, (5, 12), 13, True),
    (2, (3, 130), 131, False),
], ids=["line40", "square9", "rect12x5", "rect5x12", "rect3x130"])
def test_concentration_solve_matches_spsolve(monkeypatch, dim, res, kd,
                                             banded):
    mesh = build_mesh(dim, (1.0,) * dim, res)
    assert mesh.half_bandwidth == kd
    rng = np.random.default_rng(3)
    A = stiffness_with_diag(mesh, rng.uniform(0.5, 2.0, mesh.n_elems),
                            lumped_mass(mesh) / 1e-3)
    b = rng.normal(size=mesh.n_nodes)
    banded_solve, calls = diffusion.solve_stiffness_banded, []
    monkeypatch.setattr(diffusion, "solve_stiffness_banded",
                        lambda *args: calls.append(1) or banded_solve(*args))
    x = diffusion._solve(mesh, A, b)
    assert bool(calls) is banded
    ref = spla.spsolve(A.tocsc(), b)
    solutions = [x]
    if dim == 1:
        solver = SPDSolver(A)
        assert solver.direct
        solutions.append(solver.solve(b, np.zeros_like(b), 1e-12)[0])
    for y in solutions:
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(A @ y - b) <= 1e-12 * np.linalg.norm(b)


def _negative_diagonal(mesh):
    return stiffness_with_diag(mesh, 1.0, -10.0 * lumped_mass(mesh) / 1e-3)


def _nan_coefficient(mesh):
    coeff = np.ones(mesh.n_elems)
    coeff[mesh.n_elems // 2] = np.nan
    return stiffness_with_diag(mesh, coeff, lumped_mass(mesh) / 1e-3)


@pytest.mark.parametrize("make", [_negative_diagonal, _nan_coefficient],
                         ids=["negative-diagonal", "nan-coefficient"])
def test_failed_banded_cholesky_is_step_failure(make):
    line = build_mesh(1, (1.0,), 20)
    with pytest.raises(StepFailure, match="enthalpy solve: banded Cholesky"):
        SPDSolver(make(line), "enthalpy solve")
    square = build_mesh(2, (1.0, 1.0), (6, 5))
    b = np.ones(square.n_nodes)
    with pytest.raises(StepFailure,
                       match="concentration solve: banded Cholesky"):
        diffusion._solve(square, make(square), b)


@pytest.mark.parametrize("make", [_negative_diagonal, _nan_coefficient],
                         ids=["negative-diagonal", "nan-coefficient"])
def test_failed_pcg_is_step_failure(make):
    # a 2D matrix is not tridiagonal: it goes through Jacobi-PCG
    solver = SPDSolver(make(build_mesh(2, (1.0, 1.0), (6, 5))),
                       "enthalpy solve")
    assert not solver.direct
    b = np.ones(solver.A.shape[0])
    A, products = solver.A, []
    solver.A = type("Counted", (), {
        "__matmul__": lambda self, v: products.append(1) or A @ v})()
    with pytest.raises(StepFailure, match="enthalpy solve: CG stalled"):
        solver.solve(b, np.zeros_like(b), 1e-12)
    # the start residual and one A p: the breakdown test stops CG at once
    assert len(products) == 2


@pytest.mark.parametrize("comps", [()])
def test_nodal_sum_matches_add_at(comps):
    # the np.add.at loop is the reference: same summation order, same bytes
    rng = np.random.default_rng(5)
    mesh = build_mesh(2, (1.0, 1.0), (6, 5))
    vals = rng.standard_normal(mesh.elems.shape + comps) * 10.0 ** rng.integers(
        -8, 8, mesh.elems.shape + comps)
    ref = np.zeros((mesh.n_nodes,) + comps)
    np.add.at(ref, mesh.elems.ravel(), vals.reshape((-1,) + comps))
    assert np.array_equal(nodal_sum(mesh.n_nodes, mesh.elems, vals), ref)


# The element kernels as einsum bodies over the per-element arrays, kept
# here as reference oracles for the sparse-operator forms in ``grid``.


def _oracle_grad_field(mesh, nodal):
    return np.einsum("ea,ead->ed", nodal[mesh.elems], mesh.grads)


def _oracle_elem_mean(mesh, nodal):
    return nodal[mesh.elems].mean(axis=1)


def _oracle_scatter(mesh, contrib):
    ref = np.zeros((mesh.n_nodes,) + contrib.shape[2:])
    np.add.at(ref, mesh.elems.ravel(),
              contrib.reshape((-1,) + contrib.shape[2:]))
    return ref


def _oracle_lump_elements(mesh, values):
    share = values * mesh.volumes / (mesh.dim + 1)
    return _oracle_scatter(mesh, np.broadcast_to(share[:, None],
                                                 mesh.elems.shape))


def _oracle_grad_stiffness_vector(mesh, coeff, nodal):
    flux = coeff[:, None] * _oracle_grad_field(mesh, nodal) \
        * mesh.volumes[:, None]
    return _oracle_scatter(mesh, np.einsum("ed,ead->ea", flux, mesh.grads))


def _oracle_strain(mesh, u):
    vals = u.reshape(mesh.n_nodes, mesh.dim)[mesh.elems]
    g = np.einsum("eac,ead->ecd", vals, mesh.grads)
    return 0.5 * (g + np.swapaxes(g, -2, -1))


def _oracle_strain_adjoint(mesh, sig):
    weighted = sig * mesh.volumes[:, None, None]
    contrib = np.einsum("ecd,ead->eac", weighted, mesh.grads)
    return _oracle_scatter(mesh, contrib).ravel()


def _dof_matrix(mesh, data, col_dofs, ncols):
    """Assemble (ne, nv, dim, k) element blocks with the given column
    ids into a dense (n*dim, ncols) matrix."""
    ne, nv, dim = mesh.n_elems, mesh.dim + 1, mesh.dim
    rows = mesh.elems[:, :, None] * dim + np.arange(dim)
    rows = np.broadcast_to(rows[..., None], data.shape)
    cols = np.broadcast_to(col_dofs[:, None, None, :], data.shape)
    ref = np.zeros((mesh.n_nodes * dim, ncols))
    np.add.at(ref, (rows.ravel(), cols.ravel()), data.ravel())
    return ref


def _oracle_elastic_stiffness(mesh, pair):
    lam, mu = pair
    g, vol = mesh.grads, mesh.volumes
    ne, nv, dim = g.shape
    dot = np.einsum("ead,ebd->eab", g, g)
    loc = np.zeros((ne, nv, dim, nv, dim))
    loc += lam * np.einsum("eac,ebd->eacbd", g, g)
    loc += mu * np.einsum("eab,cd->eacbd", dot, np.eye(dim))
    loc += mu * np.einsum("ead,ebc->eacbd", g, g)
    loc = (loc * vol[:, None, None, None, None]).reshape(ne, nv, dim, -1)
    dofs = (mesh.elems[:, :, None] * dim + np.arange(dim)).reshape(ne, -1)
    return _dof_matrix(mesh, loc, dofs, mesh.n_nodes * dim)


def _oracle_coupling_force_matrix(mesh, sig_unit):
    nv = mesh.dim + 1
    contrib = np.einsum("cd,ead->eac", sig_unit, mesh.grads) \
        * mesh.volumes[:, None, None] / nv
    data = np.broadcast_to(contrib[..., None], contrib.shape + (nv,))
    return _dof_matrix(mesh, data, mesh.elems, mesh.n_nodes)


def _oracle_mean_coupling_matrix(mesh, scale):
    nv = mesh.dim + 1
    E = np.zeros((mesh.n_elems, mesh.n_nodes))
    np.add.at(E, (np.repeat(np.arange(mesh.n_elems), nv),
                  mesh.elems.ravel()), 1.0 / nv)
    return E.T @ np.diag(mesh.volumes * scale) @ E


@pytest.mark.parametrize("dim, lengths, res", [
    (1, (1.0,), (7,)),
    (2, (2.0, 0.5), (5, 4)),
], ids=["line7", "rect5x4"])
def test_operator_kernels_match_einsum_oracles(dim, lengths, res):
    # 1D: every kernel gives the oracle's bits, which keeps the 1D ledger
    # byte-identical; 2D sums in another order, to round-off.  A triple
    # product rounds (g_a*w)*g_b where the oracle rounds (g_a*g_b)*w, so
    # the elastic and coupling matrices agree to round-off in 1D as well.
    mesh = build_mesh(dim, lengths, res)
    rng = np.random.default_rng(23)
    n, ne = mesh.n_nodes, mesh.n_elems
    nodal = rng.standard_normal(n)
    u = rng.standard_normal(n * dim)
    coeff = rng.uniform(0.5, 2.0, ne)
    sig = rng.standard_normal((ne, dim, dim))
    sig = sig + np.swapaxes(sig, 1, 2)
    sig_unit = np.array([[0.7, 0.2], [0.2, -0.4]])[:dim, :dim]
    pair = (0.3, 0.45)

    def check(got, ref, exact=dim == 1):
        got = got.toarray() if hasattr(got, "toarray") else got
        assert got.shape == ref.shape
        if exact:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    check(grad_field(mesh, nodal), _oracle_grad_field(mesh, nodal))
    check(elem_mean(mesh, nodal), _oracle_elem_mean(mesh, nodal))
    check(lump_elements(mesh, coeff), _oracle_lump_elements(mesh, coeff))
    check(lumped_mass(mesh), _oracle_lump_elements(mesh, np.ones(ne)))
    check(grad_stiffness_vector(mesh, coeff, nodal),
          _oracle_grad_stiffness_vector(mesh, coeff, nodal))
    check(strain(mesh, u), _oracle_strain(mesh, u))
    check(strain_adjoint(mesh, sig), _oracle_strain_adjoint(mesh, sig))
    check(elastic_stiffness(mesh, pair),
          _oracle_elastic_stiffness(mesh, pair), exact=False)
    check(coupling_force_matrix(mesh, sig_unit),
          _oracle_coupling_force_matrix(mesh, sig_unit), exact=False)
    check(mean_coupling_matrix(mesh, 2.5),
          _oracle_mean_coupling_matrix(mesh, 2.5))
