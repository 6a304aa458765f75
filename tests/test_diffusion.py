import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hydrisim import diffusion
from hydrisim.constitutive import (
    d2phi1_dchichi,
    d2phi1_dmchi,
    desk_default_material,
)
from hydrisim.diffusion import DiffusionProblem, assemble_mu, solve_chi_step
from hydrisim.errors import InvariantViolation, StepFailure
from hydrisim.grid import (
    boundary_functional,
    build_mesh,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lumped_mass,
    stiffness,
)

from _oracles import cos_mode_amplitude, fd_eigenvalue


def desk(**kw):
    return dataclasses.replace(desk_default_material(1), **kw)


def make_problem(mesh, mat, tau, chi_prev, m=None, **kw):
    n = mesh.n_nodes
    args = dict(mesh=mesh, mat=mat, tau=tau,
                m=np.zeros(n) if m is None else m, chi_prev=chi_prev)
    args.update(kw)
    return DiffusionProblem(**args)


# ---------------------------------------------------------------------------
# chemical potential assembly


def test_constant_fields_have_no_potential_gradient():
    mesh = build_mesh(1, (1.0,), 8)
    mat = desk()
    mu, gmu = assemble_mu(mesh, mat, np.full(mesh.n_nodes, 0.3),
                          np.full(mesh.n_nodes, 0.7))
    assert np.allclose(np.diff(mu), 0.0, atol=1e-14)
    assert np.allclose(gmu, 0.0, atol=1e-14)


def test_zero_concentration_kills_gradient():
    # the mixed curvature vanishes at chi = 0, so a varying m alone
    # produces no driving gradient
    mesh = build_mesh(1, (1.0,), 8)
    mat = desk()
    m = np.linspace(0.0, 1.0, mesh.n_nodes)
    mu, gmu = assemble_mu(mesh, mat, m, np.zeros(mesh.n_nodes))
    assert np.allclose(gmu, 0.0, atol=1e-14)


def test_gradient_chain_rule_hand_value():
    mesh = build_mesh(1, (1.0,), 3)  # two elements, h = 1/2
    mat = desk()
    m = np.array([0.0, 0.2, 0.6])
    chi = np.array([1.0, 0.8, 0.8])
    mu, gmu = assemble_mu(mesh, mat, m, chi)
    m_e = elem_mean(mesh, m)
    chi_e = elem_mean(mesh, chi)
    for e, (dm, dchi) in enumerate(((0.4, -0.4), (0.8, 0.0))):
        expect = (d2phi1_dchichi(mat, m_e[e], chi_e[e]) * dchi
                  + d2phi1_dmchi(mat, m_e[e], chi_e[e]) * dm)
        assert gmu[e, 0] == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# step solver


def test_constant_state_is_fixed_point():
    mesh = build_mesh(1, (1.0,), 11)
    mat = desk()
    chi0 = np.full(mesh.n_nodes, 0.8)
    m = np.full(mesh.n_nodes, 0.4)
    sol = solve_chi_step(make_problem(mesh, mat, 1e-3, chi0, m=m))
    assert np.allclose(sol.chi, chi0, atol=1e-13)
    assert np.allclose(np.diff(sol.mu), 0.0, atol=1e-13)


def test_exact_conservation_closed_system():
    mesh = build_mesh(1, (1.0,), 25)
    mat = desk()
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    chi = 0.3 + 0.25 * np.cos(2 * np.pi * x)
    m = 0.5 + 0.4 * np.sin(np.pi * x)
    mass0 = float(np.sum(Ml * chi))
    for _ in range(10):
        sol = solve_chi_step(make_problem(mesh, desk(), 1e-3, chi, m=m))
        chi = sol.chi
    assert abs(float(np.sum(Ml * chi)) - mass0) <= 1e-12


def test_conservation_matches_boundary_ledger():
    mesh = build_mesh(1, (1.0,), 20)
    mat = desk()
    Ml = lumped_mass(mesh)
    hs = 0.7 * np.eye(mesh.n_nodes)[0]  # lumped flux on the left node
    tau = 1e-3
    chi = np.zeros(mesh.n_nodes)
    mass0 = float(np.sum(Ml * chi))
    for _ in range(10):
        sol = solve_chi_step(make_problem(mesh, mat, tau, chi, h_s=hs))
        chi = sol.chi
    gained = float(np.sum(Ml * chi)) - mass0
    assert gained == pytest.approx(10 * tau * 0.7, abs=1e-12)


def test_nonnegativity_preserved_from_zero():
    mesh = build_mesh(1, (1.0,), 30)
    mat = desk()
    x = mesh.coords[:, 0]
    chi = np.where(x < 0.5, 0.0, 1.0)  # sharp front with zero region
    m = 0.9 * np.exp(-10 * (x - 0.3) ** 2)
    sol = solve_chi_step(make_problem(mesh, mat, 1e-3, chi, m=m))
    assert float(sol.chi.min()) >= -1e-12


def test_negative_previous_concentration_rejected():
    mesh = build_mesh(1, (1.0,), 5)
    chi = np.array([0.0, -1e-3, 0.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation):
        solve_chi_step(make_problem(mesh, desk(), 1e-3, chi))


def fixed_point_residual(pr, chi):
    """Defect of the semilinear system rebuilt at ``chi``, in the lumped
    dual norm: (Ml/tau + M0 K(d2phi1/dchi2)) chi = Ml chi_prev/tau
    - M0 G(d2phi1/dm dchi) m."""
    mesh, mat = pr.mesh, pr.mat
    Ml = lumped_mass(mesh)
    m_e, chi_e = elem_mean(mesh, pr.m), elem_mean(mesh, chi)
    A = sp.diags(Ml / pr.tau) + stiffness(
        mesh, mat.M0 * d2phi1_dchichi(mat, m_e, chi_e))
    rhs = Ml * pr.chi_prev / pr.tau - grad_stiffness_vector(
        mesh, mat.M0 * d2phi1_dmchi(mat, m_e, chi_e), grad_field(mesh, pr.m))
    res = A @ chi - rhs
    return float(np.sqrt(np.sum(res ** 2 / Ml)))


def test_fixed_point_residual_small():
    mesh = build_mesh(1, (1.0,), 20)
    mat = desk()
    x = mesh.coords[:, 0]
    chi = 0.5 + 0.3 * np.cos(np.pi * x)
    m = 0.5 + 0.2 * np.sin(np.pi * x)
    pr = make_problem(mesh, mat, 1e-3, chi, m=m)
    sol = solve_chi_step(pr)
    assert fixed_point_residual(pr, sol.chi) <= 1e-8
    # undamped Picard contracts in a few sweeps (6 here)
    assert sol.iterations <= 8


def test_fixed_point_residual_with_mobility():
    # the bench runs M0 = 1 only; a lost or doubled M0 factor shows here
    mesh = build_mesh(1, (1.0,), 20)
    mat = desk(M0=2.5)
    x = mesh.coords[:, 0]
    chi = 0.5 + 0.3 * np.cos(np.pi * x)
    m = 0.5 + 0.2 * np.sin(np.pi * x)
    pr = make_problem(mesh, mat, 1e-3, chi, m=m)
    sol = solve_chi_step(pr)
    assert fixed_point_residual(pr, sol.chi) <= 1e-8
    assert fixed_point_residual(pr, chi) > 1.0


def test_eigenmode_decay_matches_fd_prediction():
    # decoupled linear regime: mu = phi1_kappa * chi, constant mobility;
    # the discrete dynamics then reduce to implicit-Euler FD exactly
    nx, tau, steps = 60, 2e-4, 40
    mesh = build_mesh(1, (1.0,), nx)
    mat = desk(coupling_k=0.0, phi1_kappa=5.0, M0=1.0)
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    chi = 0.5 + 0.1 * np.cos(np.pi * x)
    amp0 = cos_mode_amplitude(x, Ml, chi)
    for _ in range(steps):
        chi = solve_chi_step(make_problem(mesh, mat, tau, chi)).chi
    amp = cos_mode_amplitude(x, Ml, chi)
    lam_h = 5.0 * fd_eigenvalue(nx)
    predicted = (1.0 / (1.0 + tau * lam_h)) ** steps
    assert amp / amp0 == pytest.approx(predicted, rel=1e-9)


def test_eigenmode_decay_near_continuum_rate():
    nx, tau, steps = 200, 1e-5, 400
    mesh = build_mesh(1, (1.0,), nx)
    mat = desk(coupling_k=0.0, phi1_kappa=5.0, M0=1.0)
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    chi = 0.5 + 0.1 * np.cos(np.pi * x)
    amp0 = cos_mode_amplitude(x, Ml, chi)
    for _ in range(steps):
        chi = solve_chi_step(make_problem(mesh, mat, tau, chi)).chi
    amp = cos_mode_amplitude(x, Ml, chi)
    rate = -np.log(amp / amp0) / (steps * tau)
    assert rate == pytest.approx(5.0 * np.pi ** 2, rel=0.02)


def test_mu_consistent_with_returned_state():
    mesh = build_mesh(1, (1.0,), 15)
    mat = desk()
    x = mesh.coords[:, 0]
    chi = 0.4 + 0.2 * np.sin(2 * np.pi * x)
    m = 0.5 * np.ones(mesh.n_nodes)
    sol = solve_chi_step(make_problem(mesh, mat, 1e-3, chi, m=m))
    from hydrisim.constitutive import chemical_potential
    assert np.allclose(sol.mu, chemical_potential(mat, m, sol.chi),
                       atol=1e-14)


def test_two_dimensional_step_conserves():
    mesh = build_mesh(2, (1.0, 1.0), (6, 6))
    mat = desk_default_material(2)
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    chi = 0.5 + 0.2 * np.cos(np.pi * x)
    pr = DiffusionProblem(mesh=mesh, mat=mat, tau=1e-3,
                          m=np.zeros(mesh.n_nodes), chi_prev=chi)
    sol = solve_chi_step(pr)
    assert float(np.sum(Ml * (sol.chi - chi))) == pytest.approx(0.0,
                                                                abs=1e-12)
    assert sol.iterations <= 8


@pytest.mark.filterwarnings(
    "ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_non_finite_sparse_lu_solve_fails_at_once(monkeypatch):
    # kd = 131 > _BAND_MAX: the wide-band SuperLU path, which only warns
    # on a NaN-poisoned matrix and returns NaN
    mesh = build_mesh(2, (1.0, 1.0), (3, 130))
    assert mesh.half_bandwidth > diffusion._BAND_MAX
    m = np.zeros(mesh.n_nodes)
    m[mesh.n_nodes // 2] = np.nan
    chi = 0.5 + 0.2 * mesh.coords[:, 0]
    spsolve, calls = diffusion.spla.spsolve, []
    monkeypatch.setattr(diffusion.spla, "spsolve",
                        lambda *a, **kw: calls.append(1) or spsolve(*a, **kw))
    pr = make_problem(mesh, desk_default_material(2), 1e-3, chi, m=m)
    with pytest.raises(StepFailure,
                       match="concentration solve: sparse LU gave non-finite"):
        solve_chi_step(pr)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the 2D PCG path and its exact fallback


def _grid_system(res=(12, 9), tau=1e-3, seed=5):
    """A Picard system of a 2D rectangle grid: mobility-like coefficients
    within 1% of each other, a positive concentration and its right-hand
    side, as the concentration step builds them."""
    mesh = build_mesh(2, (1.5, 1.0), res)
    rng = np.random.default_rng(seed)
    coeff = 0.4 * rng.uniform(0.995, 1.005, mesh.n_elems)
    chi = 0.3 + 0.1 * rng.uniform(size=mesh.n_nodes)
    diag = lumped_mass(mesh) / tau
    rhs = diag * chi + 1e-2 * rng.normal(size=mesh.n_nodes)
    pr = make_problem(mesh, desk_default_material(2), tau, chi)
    return pr, coeff, diag, rhs


@pytest.mark.parametrize("cg_tol", [1e-12, 1e-6])
def test_grid_pcg_matches_exact_solve_and_closes_the_balance(cg_tol):
    pr, coeff, diag, rhs = _grid_system()
    pr.cg_tol = cg_tol
    x, iters = diffusion._solve_pcg(pr, coeff, diag, rhs, pr.chi_prev)
    assert x is not None and 1 <= iters <= 10
    ref = diffusion._solve(pr.mesh, coeff, diag, rhs)
    assert np.linalg.norm(x - ref) <= 10 * cg_tol * np.linalg.norm(ref)
    A = sp.diags(diag) + stiffness(pr.mesh, coeff)
    r = rhs - A @ x
    # the constant shift moves the residual by at most its own size ...
    assert np.linalg.norm(r) <= 2 * cg_tol * np.linalg.norm(rhs)
    # ... and leaves its sum at round-off, even where CG stopped early:
    # the hydrogen balance of the step
    assert abs(r.sum()) <= 64 * np.finfo(float).eps * np.abs(rhs).sum()


def test_grid_step_uses_pcg_and_agrees_with_the_exact_step(monkeypatch):
    mesh = build_mesh(2, (1.0, 1.0), (10, 10))
    mat = desk_default_material(2)
    chi = 0.4 + 0.2 * np.cos(np.pi * mesh.coords[:, 0])
    h_s = 0.5 * lumped_mass(mesh) * (mesh.coords[:, 0] == 0.0)
    pr = make_problem(mesh, mat, 1e-3, chi, h_s=h_s)
    sol = solve_chi_step(pr)
    assert sol.cg_iterations > 0 and sol.exact_solves == 0
    ref = _exact_step(monkeypatch, pr)
    assert ref.exact_solves == ref.iterations
    assert np.linalg.norm(sol.chi - ref.chi) <= 1e-10 * np.linalg.norm(ref.chi)
    Ml = lumped_mass(mesh)
    for s in (sol, ref):
        gain = np.sum(Ml * (s.chi - chi)) - 1e-3 * h_s.sum()
        assert abs(gain) <= 1e-13


def test_grid_step_from_zero_falls_back_and_stays_nonnegative():
    mesh = build_mesh(2, (1.0, 1.0), (10, 8))
    h_s = 0.5 * lumped_mass(mesh) * (mesh.coords[:, 0] == 0.0)
    pr = make_problem(mesh, desk_default_material(2), 1e-3,
                      np.zeros(mesh.n_nodes), h_s=h_s)
    sol = solve_chi_step(pr)
    # a start at zero spends nothing on CG: every Picard system is exact
    assert sol.cg_iterations == 0 and sol.exact_solves == sol.iterations
    assert np.min(sol.chi) >= 0.0


def _exact_step(monkeypatch, pr):
    with monkeypatch.context() as mp:
        mp.setattr(diffusion, "_solve_pcg", lambda *a: (None, 0))
        return solve_chi_step(pr)


@pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-5])
def test_grid_step_at_a_loose_cg_tol_matches_the_exact_step(monkeypatch, tau):
    # |rhs| is mostly Ml chi / tau, so at cg_tol 1e-4 the second Picard
    # system's start already meets the tolerance; a Picard update of the
    # balance shift alone would end the loop short of its fixed point
    mesh = build_mesh(2, (1.0, 1.0), (40, 40))
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    chi = 0.4 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y)
    h_s = 0.5 * lumped_mass(mesh) * (x == 0.0)
    pr = make_problem(mesh, desk_default_material(2), tau, chi, h_s=h_s,
                      cg_tol=1e-4)
    sol = solve_chi_step(pr)
    ref = _exact_step(monkeypatch, pr)
    assert sol.cg_iterations > 0 and sol.exact_solves > 0
    change = ref.chi - chi
    assert (np.linalg.norm(sol.chi - chi - change)
            <= 1e-9 * np.linalg.norm(change))


def test_stalled_grid_pcg_counts_its_iterations_and_solves_exactly(
        monkeypatch, caplog):
    class OneIteration(diffusion.SPDSolver):
        def __init__(self, *args):
            super().__init__(*args)
            self.max_iter = 1

    mesh = build_mesh(2, (1.0, 1.0), (10, 10))
    chi = 0.4 + 0.2 * np.cos(np.pi * mesh.coords[:, 0])
    h_s = 0.5 * lumped_mass(mesh) * (mesh.coords[:, 0] == 0.0)
    pr = make_problem(mesh, desk_default_material(2), 1e-3, chi, h_s=h_s)
    ref = _exact_step(monkeypatch, pr)
    monkeypatch.setattr(diffusion, "SPDSolver", OneIteration)
    with caplog.at_level("DEBUG", logger="hydrisim.diffusion"):
        sol = solve_chi_step(pr)
    # the first system stalls after its one iteration; the rest of the
    # step is exact without trying CG again
    assert sol.cg_iterations == 1
    assert sol.exact_solves == sol.iterations == ref.iterations
    fallbacks = [r.message for r in caplog.records
                 if r.message.endswith("solving exactly")]
    assert len(fallbacks) == 1
    assert fallbacks[0].startswith("concentration solve: CG stalled")
    assert np.array_equal(sol.chi, ref.chi)


def test_grid_pcg_shifted_below_the_margin_solves_exactly(caplog):
    # the start, 2e-6 everywhere, clears _PCG_MARGIN, so CG runs; the left
    # outflux pulls the shifted CG solution to 9.4e-7 at the left edge,
    # below the margin, and the system goes to the exact solve
    mesh = build_mesh(2, (1.0, 1.0), (6, 6))
    chi = np.full(mesh.n_nodes, 2e-6)
    assert np.min(chi) > diffusion._PCG_MARGIN
    h_s = boundary_functional(mesh, -1e-4, "left")
    pr = make_problem(mesh, desk_default_material(2), 1e-3, chi, h_s=h_s)
    with caplog.at_level("DEBUG", logger="hydrisim.diffusion"):
        sol = solve_chi_step(pr)
    fallbacks = [r.message for r in caplog.records
                 if r.message.endswith("solving exactly")]
    assert fallbacks[0].startswith("concentration PCG: node at 9.4")
    assert sol.cg_iterations > 0 and sol.exact_solves >= 1
    assert 0.0 <= np.min(sol.chi) <= diffusion._PCG_MARGIN
    Ml = lumped_mass(mesh)
    gain = np.sum(Ml * (sol.chi - chi)) - 1e-3 * h_s.sum()
    assert abs(gain) <= 1e-12 * np.sum(Ml * chi)


def test_nan_coefficient_on_a_grid_fails_in_the_exact_solve():
    # CG stops at once and hands the system to the banded solve, which
    # names the stage; test_non_finite_sparse_lu_solve_fails_at_once
    # covers the SuperLU side
    mesh = build_mesh(2, (1.0, 1.0), (6, 5))
    m = np.zeros(mesh.n_nodes)
    m[mesh.n_nodes // 2] = np.nan
    chi = 0.5 + 0.2 * mesh.coords[:, 0]
    pr = make_problem(mesh, desk_default_material(2), 1e-3, chi, m=m)
    with pytest.raises(StepFailure, match="concentration solve: banded"):
        solve_chi_step(pr)
