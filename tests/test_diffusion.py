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
