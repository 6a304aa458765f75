import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hydrisim.constitutive import desk_default_material, dtheta_dm
from hydrisim.errors import InvariantViolation
from hydrisim.grid import (
    build_mesh,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lump_elements,
    lumped_mass,
    stiffness,
    strain,
)
from hydrisim import heat
from hydrisim.heat import HeatProblem, dissipation_rhs, solve_w_step
from hydrisim.mech_phase import StateTerms
from hydrisim.state import State

from _oracles import cos_mode_amplitude, fd_eigenvalue


def desk(**kw):
    return dataclasses.replace(desk_default_material(1), **kw)


def make_problem(mesh, mat, tau, u=None, u_prev=None, m_prev=None,
                 w_prev=None, **kw):
    """A problem from a previous state with the given fields, zero where
    none is given, to the new displacement ``u``."""
    n = mesh.n_nodes
    d = mesh.dim
    z = np.zeros(n)
    prev = State(k=0, t=0.0,
                 u=np.zeros(n * d) if u_prev is None else u_prev,
                 u_prev=np.zeros(n * d), m=z if m_prev is None else m_prev,
                 chi=z, w=z if w_prev is None else w_prev, mu=z, xi=z)
    eps_new = strain(mesh, np.zeros(n * d) if u is None else u)
    args = dict(mesh=mesh, mat=mat, tau=tau,
                prev=StateTerms(mesh, mat, prev), eps_new=eps_new,
                m=np.zeros(n), grad_mu=np.zeros((mesh.n_elems, d)))
    args.update(kw)
    return HeatProblem(**args)


# ---------------------------------------------------------------------------
# right-hand-side assembly


def test_frozen_state_produces_nothing():
    mesh = build_mesh(1, (1.0,), 9)
    pr = make_problem(mesh, desk(), 1e-3)
    terms = dissipation_rhs(pr, pr.prev.state.w)
    for name, vec in terms.items():
        assert np.allclose(vec, 0.0, atol=1e-15), name


def test_phase_heating_hand_value():
    # phase rate 0.2, alpha = 1, r = 0.05, w = 0:
    # (s_a + alpha*0.2)*0.2 + 0.05*0.2 = 0.04 + 0.01 = 0.05 per volume
    mesh = build_mesh(1, (1.0,), 2)  # one element of volume 1
    mat = desk(alpha=1.0, threshold_r=0.05)
    tau = 0.5
    m = np.full(mesh.n_nodes, 0.2 * tau)
    pr = make_problem(mesh, mat, tau, m=m)
    terms = dissipation_rhs(pr, pr.prev.state.w)
    produced = float(terms["phase"].sum() + terms["activation"].sum())
    assert produced == pytest.approx(0.05, abs=1e-14)


def test_viscous_power_hand_value():
    mesh = build_mesh(1, (1.0,), 2)
    mat = desk()  # viscosity modulus D = 1 in 1D
    tau = 0.1
    u = np.array([0.0, 0.03])  # strain rate 0.3
    pr = make_problem(mesh, mat, tau, u=u)
    terms = dissipation_rhs(pr, pr.prev.state.w)
    expect = 0.3 ** 2 / (1.0 + tau * 0.3 ** 2)
    assert float(terms["viscous"].sum()) == pytest.approx(expect, abs=1e-14)


def test_regularized_terms_bounded_by_coefficient_over_tau():
    # the denominators exist to cap the power density at coeff / tau
    mesh = build_mesh(1, (1.0,), 2)
    mat = desk()
    tau = 1e-3
    huge_u = np.array([0.0, 1e4])
    huge_gmu = np.full((mesh.n_elems, 1), 1e7)
    pr = make_problem(mesh, mat, tau, u=huge_u, grad_mu=huge_gmu)
    terms = dissipation_rhs(pr, pr.prev.state.w)
    vol = float(mesh.volumes.sum())
    visc_modulus = mat.visc[0] + 2 * mat.visc[1]
    assert float(terms["viscous"].sum()) / vol <= visc_modulus / tau * (1 + 1e-12)
    assert float(terms["diffusional"].sum()) / vol <= mat.M0 / tau * (1 + 1e-12)


def test_step_matrix_positive_definite():
    mesh = build_mesh(1, (1.0,), 25)
    mat = desk()
    A = sp.diags(lumped_mass(mesh) / 1e-3) + stiffness(
        mesh, mat.K0 * np.ones(mesh.n_elems))
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.normal(size=mesh.n_nodes)
        assert float(v @ (A @ v)) > 0.0


# ---------------------------------------------------------------------------
# step solver


def test_constant_enthalpy_is_fixed_point():
    mesh = build_mesh(1, (1.0,), 12)
    w0 = np.full(mesh.n_nodes, 1.7)
    sol = solve_w_step(make_problem(mesh, desk(), 1e-3, w_prev=w0))
    assert np.allclose(sol.w, w0, atol=1e-12)
    assert all(v == 0.0 for v in sol.produced.values())


def test_heat_ledger_identity():
    # testing the discrete equation with v = 1 kills conduction exactly:
    # lumped integral of (w_new - w_prev) = tau * total production
    mesh = build_mesh(1, (1.0,), 20)
    mat = desk()
    tau = 1e-3
    n = mesh.n_nodes
    x = mesh.coords[:, 0]
    u = 0.02 * np.sin(np.pi * x)
    m = 0.3 * x * tau
    gmu = np.full((mesh.n_elems, 1), 0.8)
    w0 = 0.5 + 0.3 * np.cos(np.pi * x)
    q = np.full(n, 0.4)
    qs = 0.2 * np.eye(n)[0]
    pr = make_problem(mesh, mat, tau, u=u, m=m, grad_mu=gmu, w_prev=w0,
                      q=q, q_s=qs)
    sol = solve_w_step(pr)
    Ml = lumped_mass(mesh)
    grew = float(np.sum(Ml * (sol.w - w0)))
    total = tau * sum(sol.produced.values())
    assert grew == pytest.approx(total, abs=1e-11)


def test_adiabatic_heating_with_uniform_viscous_power():
    # alpha_th = 0 switches the thermoelastic back-coupling off so the
    # growth of the lumped enthalpy integral is pure viscous power
    mesh = build_mesh(1, (1.0,), 15)
    mat = desk(alpha_th=0.0)
    tau = 1e-3
    u = 0.01 * mesh.coords[:, 0]  # uniform strain rate 10 after /tau
    pr = make_problem(mesh, mat, tau, u=u)
    sol = solve_w_step(pr)
    Ml = lumped_mass(mesh)
    rate = 0.01 / tau
    density = rate ** 2 / (1.0 + tau * rate ** 2)
    assert float(np.sum(Ml * sol.w)) == pytest.approx(tau * density,
                                                      rel=1e-10)
    # uniform production, no conduction: w is spatially constant
    assert np.allclose(sol.w, sol.w[0], atol=1e-12)


def test_enthalpy_stays_nonnegative_under_cooling_couplings():
    # sigma_a and s_a vanish at w = 0, so nothing can push w negative
    mesh = build_mesh(1, (1.0,), 30)
    mat = desk()
    tau = 1e-3
    x = mesh.coords[:, 0]
    w0 = np.where(x < 0.5, 0.0, 2.0)  # hard front touching zero
    u = -0.05 * np.sin(np.pi * x) * tau
    m = 0.2 * np.cos(np.pi * x) ** 2 * tau
    pr = make_problem(mesh, mat, tau, u=u, m=m, w_prev=w0,
                      m_prev=np.zeros_like(m))
    sol = solve_w_step(pr)
    assert float(sol.w.min()) >= -1e-12


def test_negative_source_rejected():
    mesh = build_mesh(1, (1.0,), 5)
    pr = make_problem(mesh, desk(), 1e-3, q=np.full(mesh.n_nodes, -0.1))
    with pytest.raises(InvariantViolation):
        solve_w_step(pr)


def test_negative_previous_enthalpy_rejected():
    mesh = build_mesh(1, (1.0,), 5)
    w = np.array([0.0, 0.0, -1e-3, 0.0, 0.0])
    with pytest.raises(InvariantViolation):
        solve_w_step(make_problem(mesh, desk(), 1e-3, w_prev=w))


def test_conduction_eigenmode_fd_exact():
    nx, tau, steps = 60, 2e-4, 40
    mesh = build_mesh(1, (1.0,), nx)
    mat = desk(heat_law="linear", c0=1.0, K0=1.0, alpha_th=0.0)
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    w = 1.0 + 0.5 * np.cos(np.pi * x)
    amp0 = cos_mode_amplitude(x, Ml, w)
    for _ in range(steps):
        w = solve_w_step(make_problem(mesh, mat, tau, w_prev=w)).w
    amp = cos_mode_amplitude(x, Ml, w)
    predicted = (1.0 / (1.0 + tau * fd_eigenvalue(nx))) ** steps
    assert amp / amp0 == pytest.approx(predicted, rel=1e-9)


def test_conduction_eigenmode_near_continuum_rate():
    nx, tau, steps = 200, 1e-5, 400
    mesh = build_mesh(1, (1.0,), nx)
    mat = desk(heat_law="linear", c0=1.0, K0=1.0, alpha_th=0.0)
    Ml = lumped_mass(mesh)
    x = mesh.coords[:, 0]
    w = 1.0 + 0.5 * np.cos(np.pi * x)
    amp0 = cos_mode_amplitude(x, Ml, w)
    for _ in range(steps):
        w = solve_w_step(make_problem(mesh, mat, tau, w_prev=w)).w
    amp = cos_mode_amplitude(x, Ml, w)
    rate = -np.log(amp / amp0) / (steps * tau)
    assert rate == pytest.approx(np.pi ** 2, rel=0.02)


def test_produced_breakdown_keys_and_signs():
    mesh = build_mesh(1, (1.0,), 10)
    mat = desk()
    tau = 1e-3
    x = mesh.coords[:, 0]
    pr = make_problem(mesh, mat, tau, u=0.01 * x,
                      m=0.1 * tau * np.ones(mesh.n_nodes),
                      grad_mu=np.full((mesh.n_elems, 1), 0.5),
                      w_prev=np.full(mesh.n_nodes, 0.2),
                      q=np.full(mesh.n_nodes, 0.1))
    sol = solve_w_step(pr)
    for name in ("viscous", "phase", "activation", "diffusional",
                 "source", "boundary", "adiabatic_stress"):
        assert name in sol.produced
    for name in ("viscous", "activation", "diffusional", "source"):
        assert sol.produced[name] >= 0.0


def _cross_conduction_problem():
    # the bench runs K0 = M0 = 1 and c0 independent of m; here c0 depends
    # on m, so L = K0 dtheta/dm is nonzero where w > 0 and m varies
    mesh = build_mesh(1, (1.0,), 20)
    x = mesh.coords[:, 0]
    return make_problem(mesh, desk(c0_m_slope=0.3, K0=0.7, M0=2.5), 1e-3,
                        m=0.2 + 0.5 * x, m_prev=0.2 + 0.5 * x,
                        w_prev=0.5 + 0.3 * np.cos(np.pi * x),
                        grad_mu=np.full((mesh.n_elems, 1), 0.8))


def test_fixed_point_residual_with_cross_conduction():
    pr = _cross_conduction_problem()
    mesh, mat, tau, m = pr.mesh, pr.mat, pr.tau, pr.m
    ne = mesh.n_elems
    w0 = pr.prev.state.w
    sol = solve_w_step(pr)
    # rebuild the final linear system at the returned iterate
    Ml = lumped_mass(mesh)
    terms = dissipation_rhs(pr, sol.w)
    assert np.allclose(terms["diffusional"], lump_elements(
        mesh, np.full(ne, 2.5 * 0.64 / (1.0 + tau * 0.64))),
        rtol=1e-14, atol=0.0)
    L = 0.7 * dtheta_dm(mat, elem_mean(mesh, m), elem_mean(mesh, sol.w))
    cross = grad_stiffness_vector(mesh, L, grad_field(mesh, m))
    A = sp.diags(Ml / tau) + stiffness(mesh, np.full(ne, 0.7))
    res = A @ sol.w - (Ml * w0 / tau + sum(terms.values()) - cross)

    def dual(v):
        return float(np.sqrt(np.sum(v ** 2 / Ml)))

    assert dual(res) <= 1e-8
    assert dual(cross) > 1e-3


def test_cross_conduction_takes_one_mean_of_w_per_iterate(monkeypatch):
    # each iterate's element mean of w feeds both sigma_a and the cross
    # conduction; the first iterate reads the previous state's
    calls = []
    monkeypatch.setattr(heat, "elem_mean",
                        lambda *a: calls.append(1) or elem_mean(*a))
    sol = solve_w_step(_cross_conduction_problem())
    # the mean of m once, then one mean of w per iterate after the first
    assert sol.iterations == 4
    assert len(calls) == 4


def test_cross_conduction_skipped_without_c0_slope(monkeypatch):
    # with c0 independent of m, L = K0 dtheta/dm is zero: the step must not
    # evaluate it on any fixed-point iteration
    mesh = build_mesh(1, (1.0,), 20)
    x = mesh.coords[:, 0]
    pr = make_problem(mesh, desk(), 1e-3, m=0.2 + 0.5 * x, m_prev=0.2 + x,
                      w_prev=0.5 + 0.3 * np.cos(np.pi * x))
    monkeypatch.setattr(heat, "dtheta_dm", lambda *a: pytest.fail(
        "dtheta_dm evaluated with c0_m_slope = 0"))
    sol = solve_w_step(pr)
    assert sol.iterations > 1

