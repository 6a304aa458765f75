import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from hydrisim.constitutive import d2phi1_dmm, desk_default_material, phi1
from hydrisim.errors import ConfigError, InvariantViolation
from hydrisim.grid import (
    build_mesh,
    coupling_force_matrix,
    elastic_stiffness,
    lumped_mass,
    strain,
    vector_grad_op,
    vector_lumped_mass,
)
from hydrisim.mech_phase import (
    FISTA_MAX,
    MechPhaseProblem,
    StateTerms,
    _m_residual,
    _m_smooth_grad,
    _on_pattern,
    _recover_xi,
    _solve_m_block,
    _u_rhs_base,
    build_operators,
    incremental_objective,
    phase_nodal_prox,
    solve_mech_phase_step,
    tau_max,
)
from hydrisim.state import State

from _oracles import prox_instances, prox_scan, scalar_fista


def desk(**kw):
    return dataclasses.replace(desk_default_material(1), **kw)


def make_problem(mesh, mat, tau, u_prev=None, u_prev2=None, m_prev=None,
                 chi_prev=None, w_prev=None, **kw):
    """A problem from a previous state with the given fields, zero where
    none is given; ``u_prev2`` is the displacement one step before it."""
    n, d = mesh.n_nodes, mesh.dim

    def given(v, size):
        return np.zeros(size) if v is None else v
    st = State(k=0, t=0.0, u=given(u_prev, n * d),
               u_prev=given(u_prev2, n * d), m=given(m_prev, n),
               chi=given(chi_prev, n), w=given(w_prev, n), mu=np.zeros(n),
               xi=np.zeros(n))
    return MechPhaseProblem(tau=tau, prev=StateTerms(mesh, mat, st),
                            ops=build_operators(mesh, mat, tau), **kw)


# ---------------------------------------------------------------------------
# stable-step bound


def test_tau_max_positive_curvature_returns_horizon():
    assert tau_max(desk(), 0.05) == 0.05


def test_tau_max_double_well_threshold():
    mat = desk(double_well=26.0)  # inf curvature = 10 - 26 = -16
    assert tau_max(mat, 10.0) == pytest.approx(1.0 / 256.0, rel=1e-15)


def test_tau_max_clamps_to_short_horizon():
    mat = desk(double_well=26.0)
    assert tau_max(mat, 0.001) == 0.001


def test_tau_max_prox_curvature_threshold():
    # inf curvature = 10 - 10.5 = -0.5: alpha^2/curv^2 = 4, but the nodal
    # prox needs alpha/tau + curv >= 0, i.e. tau <= alpha/|curv| = 2
    assert tau_max(desk(double_well=10.5), 3.0) == 2.0


# ---------------------------------------------------------------------------
# prox kernel


def test_prox_slip_example():
    assert phase_nodal_prox(1.0, 0.3, 0.0, 0.05, 0.0, 1.0) == \
        pytest.approx(0.25, abs=1e-15)


def test_prox_stick_example():
    assert phase_nodal_prox(1.0, 0.03, 0.0, 0.05, 0.0, 1.0) == 0.0


def test_prox_clip_example():
    assert phase_nodal_prox(1.0, 1.5, 1.0, 0.05, 0.0, 1.0) == 1.0


def test_prox_zero_threshold_is_projection():
    for b in (-0.4, 0.3, 1.7):
        assert phase_nodal_prox(2.0, b, 0.5, 0.0, 0.0, 1.0) == \
            np.clip(b, 0.0, 1.0)


def test_prox_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    b = rng.uniform(-1, 2, 50)
    p = rng.uniform(0, 1, 50)
    vec = phase_nodal_prox(1.5, b, p, 0.1, 0.0, 1.0)
    for i in range(50):
        assert vec[i] == phase_nodal_prox(1.5, b[i], p[i], 0.1, 0.0, 1.0)


def test_prox_against_exhaustive_scan():
    for a, b, p, kap in prox_instances(200, seed=11):
        v = phase_nodal_prox(a, b, p, kap, 0.0, 1.0)
        ref = prox_scan(a, b, p, kap, 0.0, 1.0)
        assert abs(v - ref) <= 2e-6


def test_prox_stick_set_rate_independent():
    # scaling the driving force and the threshold jointly by c > 0 must
    # not change which instances stick at p
    for a, b, p, kap in prox_instances(100, seed=4):
        stuck = phase_nodal_prox(a, b, p, kap, 0.0, 1.0) == p
        for c in (0.1, 7.3):
            b_scaled = p + c * (b - p)
            stuck_c = phase_nodal_prox(a, b_scaled, p, c * kap, 0.0, 1.0) == p
            assert stuck_c == stuck


# ---------------------------------------------------------------------------
# step solver


def test_equilibrium_state_is_fixed_point():
    mesh = build_mesh(1, (1.0,), 9)
    mat = desk()
    pr = make_problem(mesh, mat, 1e-2)
    sol = solve_mech_phase_step(pr)
    assert np.allclose(sol.u, 0.0, atol=1e-12)
    assert np.array_equal(sol.m, np.zeros(mesh.n_nodes))
    assert np.allclose(sol.xi, 0.0, atol=1e-10)


def test_single_node_slip_hand_value():
    # eps_tr = 0 and lambda = 0 decouple the nodes: each solves
    # min (k/2)(m - a(chi))^2 + alpha/(2 tau) m^2 + r|m|
    mesh = build_mesh(1, (1.0,), 3)
    mat = desk(eps_tr=0.0, grad_coeff=0.0, alpha=1.0, coupling_k=10.0,
               threshold_r=0.05)
    tau = 0.1
    chi = np.ones(mesh.n_nodes)  # a(1) = 0.1
    pr = make_problem(mesh, mat, tau, chi_prev=chi)
    sol = solve_mech_phase_step(pr)
    a_quad = mat.coupling_k + mat.alpha / tau
    b = mat.coupling_k * 0.1 / a_quad
    expect = phase_nodal_prox(a_quad, b, 0.0, mat.threshold_r, 0.0, 1.0)
    assert expect == pytest.approx(0.0475, abs=1e-12)
    assert np.allclose(sol.m, expect, atol=1e-9)


def test_single_node_stick():
    mesh = build_mesh(1, (1.0,), 3)
    mat = desk(eps_tr=0.0, grad_coeff=0.0, threshold_r=2.0)
    pr = make_problem(mesh, mat, 0.1, chi_prev=np.ones(mesh.n_nodes))
    sol = solve_mech_phase_step(pr)
    assert np.array_equal(sol.m, pr.prev.state.m)


def test_rate_independent_without_phase_viscosity():
    # alpha = 0 removes the only tau dependence of the m-problem
    mesh = build_mesh(1, (1.0,), 7)
    mat = desk(eps_tr=0.0, alpha=0.0)
    chi = np.linspace(0.0, 2.0, mesh.n_nodes)
    sols = [solve_mech_phase_step(make_problem(mesh, mat, tau, chi_prev=chi))
            for tau in (0.05, 0.1)]
    assert np.allclose(sols[0].m, sols[1].m, atol=1e-9)


def test_monte_carlo_minimality():
    rng = np.random.default_rng(42)
    mesh = build_mesh(1, (1.0,), 5)
    mat = desk()
    n = mesh.n_nodes
    chi = rng.uniform(0.0, 1.5, n)
    w = rng.uniform(0.0, 2.0, n)
    m_prev = rng.uniform(0.2, 0.8, n)
    u_prev = rng.normal(0.0, 0.01, n)
    f = rng.normal(0.0, 0.5, n)
    pr = make_problem(mesh, mat, 1e-2, u_prev=u_prev, u_prev2=u_prev,
                      m_prev=m_prev, chi_prev=chi, w_prev=w, f=f)
    sol = solve_mech_phase_step(pr)
    j_star = incremental_objective(pr, sol.u, sol.m)
    assert sol.residual <= sol.tolerance
    # the inertial history term puts the forcing scale near 1e2 here
    assert sol.tolerance <= 1e4 * pr.opt_tol
    for _ in range(1000):
        du = rng.normal(0.0, 1e-3, n)
        dm = rng.normal(0.0, 1e-3, n)
        m_pert = np.clip(sol.m + dm, mat.m_lo, mat.m_hi)
        j = incremental_objective(pr, sol.u + du, m_pert)
        assert j >= j_star - 1e-12 * (1.0 + abs(j_star))


def test_objective_decreases_from_previous_state():
    mesh = build_mesh(1, (1.0,), 20)
    mat = desk()
    n = mesh.n_nodes
    chi = np.linspace(0.0, 2.0, n)
    pr = make_problem(mesh, mat, 1e-3, chi_prev=chi,
                      w_prev=0.5 * np.ones(n))
    sol = solve_mech_phase_step(pr)
    j_prev = incremental_objective(pr, pr.prev.state.u, pr.prev.state.m)
    assert sol.objective <= j_prev + 1e-12 * (1.0 + abs(j_prev))


def test_objective_at_the_previous_state_skips_only_zero_terms(monkeypatch):
    # at the previous state's own arrays the viscous, alpha and activation
    # terms are exact zeros and phi1 is the state's own: dropping them
    # gives the same bits as the full evaluation at equal copies
    from hydrisim import mech_phase
    mesh = build_mesh(1, (1.0,), 20)
    n = mesh.n_nodes
    rng = np.random.default_rng(11)
    u_prev = rng.normal(0.0, 0.01, n)
    pr = make_problem(mesh, desk(threshold_r=0.3), 1e-3, u_prev=u_prev,
                      u_prev2=0.5 * u_prev, m_prev=rng.uniform(0.2, 0.8, n),
                      chi_prev=np.linspace(0.0, 2.0, n),
                      w_prev=rng.uniform(0.1, 1.0, n))
    st = pr.prev.state
    full = incremental_objective(pr, st.u.copy(), st.m.copy())
    calls = []
    monkeypatch.setattr(mech_phase, "apply_viscosity",
                        lambda *a: calls.append(1))
    assert incremental_objective(pr, st.u, st.m) == full
    assert not calls


def test_cached_transpose_of_b_shares_its_arrays():
    # a copy would add nnz(B) doubles to the peak memory of a 2D run
    mesh = build_mesh(2, (1.0, 1.0), (7, 4))
    ops = build_operators(mesh, desk_default_material(2), 1e-3)
    assert np.shares_memory(ops.B_t.data, ops.B.data)
    assert np.array_equal(ops.B_t.toarray(), ops.B.toarray().T)


def test_swelling_curve_is_evaluated_once_per_step(monkeypatch):
    # phi1 and dphi1/dm take a(chi_prev) from the previous state's terms;
    # neither evaluates the curve on its own
    from hydrisim import constitutive, mech_phase
    calls = []
    real = constitutive.swelling_curve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for module in (constitutive, mech_phase):
        monkeypatch.setattr(module, "swelling_curve", counted)
    mesh = build_mesh(1, (1.0,), 20)
    n = mesh.n_nodes
    pr = make_problem(mesh, desk(), 1e-3, chi_prev=np.linspace(0.0, 2.0, n),
                      w_prev=0.5 * np.ones(n))
    incremental_objective(pr, pr.prev.state.u, pr.prev.state.m)
    sol = solve_mech_phase_step(pr)
    assert sol.prox_iterations >= 1
    assert len(calls) == 1


def test_multiplier_complementarity():
    # strong chemical driving pushes m to the upper bound somewhere
    mesh = build_mesh(1, (1.0,), 15)
    mat = desk(coupling_k=200.0, a1=8.0)
    n = mesh.n_nodes
    chi = np.linspace(0.0, 4.0, n)
    pr = make_problem(mesh, mat, 0.05, chi_prev=chi,
                      m_prev=0.5 * np.ones(n))
    sol = solve_mech_phase_step(pr)
    interior = (sol.m > mat.m_lo) & (sol.m < mat.m_hi)
    assert np.any(sol.m == mat.m_hi)
    assert np.all(np.abs(sol.xi[interior]) <= 1e-10)
    assert np.all(sol.xi[sol.m == mat.m_hi] >= -1e-10)
    assert np.all(sol.xi[sol.m == mat.m_lo] <= 1e-10)
    # normal-cone inequality xi (v - m) <= 0 for box vertices v
    for v in (mat.m_lo, mat.m_hi):
        assert np.max(sol.xi * (v - sol.m)) <= 1e-9


def test_multiplier_without_threshold():
    # r = 0: zeta vanishes, so xi = -g / Mlump on the box faces whether or
    # not m moved, 0 inside, and no division by r happens
    g = np.array([0.3, -0.2, 0.5, -0.4])
    m = np.array([0.0, 1.0, 0.5, 0.0])
    m_prev = np.array([0.0, 1.0, 0.4, 0.2])
    Mlump = np.array([0.5, 0.5, 1.0, 0.25])
    with np.errstate(all="raise"):
        xi = _recover_xi(g, m, m_prev, Mlump, 0.0, 0.0, 1.0)
    assert np.allclose(xi, [-0.6, 0.4, 0.0, 1.6], rtol=0, atol=1e-15)


def test_box_constraint_exact():
    mesh = build_mesh(1, (1.0,), 15)
    mat = desk(coupling_k=300.0, a1=5.0)
    chi = np.full(mesh.n_nodes, 3.0)
    sol = solve_mech_phase_step(make_problem(mesh, mat, 0.05, chi_prev=chi))
    assert np.all(sol.m >= mat.m_lo)
    assert np.all(sol.m <= mat.m_hi)


def test_step_bound_rejection_mentions_threshold():
    mesh = build_mesh(1, (1.0,), 9)
    mat = desk(double_well=26.0)
    pr = make_problem(mesh, mat, 0.01)
    with pytest.raises(ConfigError, match=r"\(4\.6\)"):
        solve_mech_phase_step(pr)
    ok = make_problem(mesh, mat, 0.003)
    sol = solve_mech_phase_step(ok)
    assert sol.residual <= ok.opt_tol


def test_negative_frozen_fields_rejected():
    mesh = build_mesh(1, (1.0,), 5)
    pr = make_problem(mesh, desk(), 1e-3,
                      chi_prev=np.array([0, 0, -1e-3, 0, 0.0]))
    with pytest.raises(InvariantViolation):
        solve_mech_phase_step(pr)
    pr = make_problem(mesh, desk(), 1e-3,
                      w_prev=np.array([0, 0, -1e-3, 0, 0.0]))
    with pytest.raises(InvariantViolation):
        solve_mech_phase_step(pr)


def test_inertia_free_fall_momentum():
    # constant body force on a free bar: discrete momentum grows by
    # tau * total force each step (all internal forces are divergences)
    mesh = build_mesh(1, (1.0,), 12)
    mat = desk()
    Ml = lumped_mass(mesh)
    tau = 1e-3
    f = Ml * 2.0  # load vector of a unit-density force 2.0
    u_prev = np.zeros(mesh.n_nodes)
    u_prev2 = np.zeros(mesh.n_nodes)
    momentum = 0.0
    for _ in range(3):
        pr = make_problem(mesh, mat, tau, u_prev=u_prev, u_prev2=u_prev2,
                          f=f)
        sol = solve_mech_phase_step(pr)
        u_prev2, u_prev = u_prev, sol.u
        momentum += tau * float(np.sum(f))
        got = mat.rho * float(np.sum(Ml * (u_prev - u_prev2))) / tau
        assert got == pytest.approx(momentum, abs=1e-10)


def test_two_dimensional_step_runs():
    mesh = build_mesh(2, (1.0, 1.0), (5, 5))
    mat = desk_default_material(2)
    n = mesh.n_nodes
    pr = make_problem(mesh, mat, 1e-3, chi_prev=np.linspace(0, 1, n),
                      opt_tol=1e-8)
    sol = solve_mech_phase_step(pr)
    assert sol.residual <= 1e-8
    assert sol.u.shape == (2 * n,)


def test_desk_run_terminal_residuals_stay_absolute():
    # the forcing-scaled stopping rule must not loosen 1D desk solves:
    # their terminal first-order residuals stay within the absolute 1e-10
    from hydrisim.driver import desk_default_config
    from _streams import run_with_states

    traj, st = run_with_states(desk_default_config(resolution=(30,), T=0.01))
    ops = build_operators(traj.mesh, traj.mat, traj.tau)
    for k in range(1, traj.n_steps + 1):
        pr = MechPhaseProblem(tau=traj.tau, prev=StateTerms(
            traj.mesh, traj.mat, st[k - 1]), ops=ops)
        sol = solve_mech_phase_step(pr)
        assert sol.residual <= 1e-10


def _owned_bytes(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


def _separate_forms(mesh, mat, tau):
    """A_el, A_visc and A_u = rho/tau^2 M + A_visc/tau + A_el, each
    elastic form built on its own."""
    A_el = elastic_stiffness(mesh, mat.lame, vector_grad_op(mesh))
    A_visc = elastic_stiffness(mesh, mat.visc, vector_grad_op(mesh))
    A_u = (sp.diags(mat.rho / tau ** 2 * vector_lumped_mass(mesh))
           + A_visc / tau + A_el)
    return A_el, A_visc, A_u


@pytest.mark.parametrize("dim, res", [(1, (9,)), (2, (7, 4))])
def test_displacement_matrices_share_one_pattern(dim, res):
    mesh = build_mesh(dim, (1.0,) * dim, res)
    mat = desk_default_material(dim)
    tau = 1e-3
    ops = build_operators(mesh, mat, tau)
    _, _, A_u = _separate_forms(mesh, mat, tau)
    B = coupling_force_matrix(mesh, mat.C_eps_tr, vector_grad_op(mesh))
    assert np.array_equal(ops.B.toarray(), B.toarray())
    # one elastic form of the summed Lame pairs with the inertia on its
    # diagonal is the sum of the separate forms up to rounding, on the
    # sum's own pattern
    assert np.array_equal(ops.A_u.indptr, A_u.indptr)
    assert np.array_equal(ops.A_u.indices, A_u.indices)
    assert abs(ops.A_u - A_u).max() <= 1e-14 * abs(A_u).max()
    # no buffer beyond the stored entries
    for arr in (ops.A_u.data, ops.A_u.indices):
        assert _owned_bytes(arr) == arr.nbytes
    # a matrix with another pattern keeps its own index arrays
    other = _on_pattern(sp.identity(A_u.shape[0]), ops.A_u)
    assert np.array_equal(other.toarray(), np.eye(A_u.shape[0]))
    assert not np.shares_memory(other.indices, ops.A_u.indices)


@pytest.mark.parametrize("dim, res", [(1, (9,)), (2, (7, 4))])
def test_strain_terms_match_the_separate_matrices(dim, res):
    # the objective's elastic and viscous terms and the viscous load of
    # the right-hand side, written with A_el and A_visc
    rng = np.random.default_rng(7)
    mesh = build_mesh(dim, (1.0,) * dim, res)
    mat = desk_default_material(dim)
    tau = 1e-2
    n = mesh.n_nodes
    u_prev = rng.normal(0.0, 0.1, n * dim)
    u = u_prev + rng.normal(0.0, 0.05, n * dim)
    # no acceleration, so the strain terms carry the objective
    pr = make_problem(mesh, mat, tau, u_prev=u_prev,
                      u_prev2=2.0 * u_prev - u,
                      m_prev=rng.uniform(0.2, 0.8, n),
                      chi_prev=rng.uniform(0.0, 1.5, n),
                      w_prev=rng.uniform(0.0, 2.0, n),
                      f=rng.normal(0.0, 0.5, n * dim))
    m = rng.uniform(mat.m_lo, mat.m_hi, n)
    ops = pr.ops
    A_el, A_visc, _ = _separate_forms(mesh, mat, tau)
    prev = pr.prev.state
    sa_force, sa_node = pr.prev.sigma_a_force, pr.prev.s_a
    du, dm = u - u_prev, m - prev.m
    j_ref = (0.5 / tau * (du @ (A_visc @ du)) + 0.5 * (u @ (A_el @ u))
             - u @ (ops.B @ m) + 0.5 * (m @ (ops.A_m @ m))
             + np.sum(ops.Mlump * (phi1(mat, m, prev.chi)
                                   + 0.5 * mat.alpha / tau * dm ** 2
                                   + mat.threshold_r * np.abs(dm)
                                   + sa_node * m))
             + sa_force @ u - pr.f @ u)
    j = incremental_objective(pr, u, m)
    assert abs(j - j_ref) <= 1e-12 * abs(j_ref)
    assert incremental_objective(pr, u, m, strain(mesh, u)) == j
    b_ref = (mat.rho / tau ** 2 * ops.Mvec * (2.0 * u_prev - prev.u_prev)
             + (A_visc @ u_prev) / tau - sa_force + pr.f)
    b = _u_rhs_base(pr)
    assert np.linalg.norm(b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
    # the solution carries the strain of its u for the ledger
    sol = solve_mech_phase_step(pr)
    assert np.array_equal(sol.strain, strain(mesh, sol.u))


# ---------------------------------------------------------------------------
# phase block: per-node metric


@pytest.mark.parametrize("dim, res", [(1, (9,)), (2, (6, 5))])
@pytest.mark.parametrize("double_well", [0.0, 5.0])
def test_metric_majorizes_phase_hessian(dim, res, double_well):
    # D - H(m) is diagonally dominant with a nonnegative diagonal for
    # every m in the range [-1, 2] the accelerated iterates can visit,
    # so the diagonal metric D majorizes the smooth part of the block
    mesh = build_mesh(dim, (1.0,) * dim, res)
    mat = dataclasses.replace(desk_default_material(dim),
                              double_well=double_well)
    tau = 0.5 * tau_max(mat, 1e-2)
    ops = build_operators(mesh, mat, tau)
    rng = np.random.default_rng(5)
    n = mesh.n_nodes
    for m in (np.full(n, -1.0), np.full(n, 2.0), np.full(n, 0.5),
              rng.uniform(-1.0, 2.0, n)):
        curv = d2phi1_dmm(mat, m, np.zeros_like(m))
        H = ops.A_m.toarray() + np.diag(ops.Mlump * (mat.alpha / tau + curv))
        R = np.diag(ops.lipschitz) - H
        diag = np.diag(R)
        off = np.abs(R).sum(axis=1) - np.abs(diag)
        assert np.all(diag >= 0.0)
        assert np.all(diag >= off - 1e-12 * ops.lipschitz)


def _phase_block_case(seed=3):
    """A 2D block with chi_prev near 1 whose minimizer has stick, slip
    and box-active nodes: a(chi) = 1.2 chi^2/(1 + chi^2) spans about
    0.94-1.2, so m_prev = 1 is pushed against the box where a(chi) > 1.1,
    m_prev just below a(chi) sticks and a low m_prev slips upward."""
    rng = np.random.default_rng(seed)
    mesh = build_mesh(2, (1.0, 0.8), (9, 7))
    n = mesh.n_nodes
    mat = dataclasses.replace(desk_default_material(2), threshold_r=3.0,
                              coupling_k=30.0, a1=2.4)
    chi = 0.8 + 0.2 * rng.random(n)
    a = mat.a1 * chi ** 2 / (1.0 + chi ** 2)
    pick = rng.random(n)
    m_prev = np.where(pick < 0.3, 1.0, np.where(
        pick < 0.6, np.minimum(a - 0.05, 0.99), rng.uniform(0.0, 0.7, n)))
    u = rng.normal(0.0, 0.05, 2 * n)
    pr = make_problem(mesh, mat, 1e-2, u_prev=u, u_prev2=u, m_prev=m_prev,
                      chi_prev=chi, w_prev=rng.uniform(0.0, 1.0, n))
    return pr, u


def test_phase_block_matches_scalar_fista_oracle():
    pr, u = _phase_block_case()
    mat, ops = pr.prev.mat, pr.ops
    m_prev = pr.prev.state.m
    tol = 1e-11
    m, g, _, iters = _solve_m_block(pr, u, m_prev, tol, FISTA_MAX)
    Bu = ops.B.T @ u

    def grad(x):
        return _m_smooth_grad(pr, x, ops.A_m @ x, Bu)

    def converged(x, g):
        r = _m_residual(g, x, m_prev, ops.Mlump, mat.threshold_r,
                        mat.m_lo, mat.m_hi)
        return np.sqrt(np.sum(r ** 2 / ops.Mlump)) <= tol

    m_ref, iters_ref = scalar_fista(
        grad, float(ops.lipschitz.max()), m_prev,
        ops.Mlump * mat.threshold_r, mat.m_lo, mat.m_hi, m_prev, converged)
    # the case exercises every branch of the nodal prox
    d = m - m_prev
    inside = (m > mat.m_lo) & (m < mat.m_hi)
    assert np.sum(inside & (d == 0.0)) >= 3      # stick
    assert np.sum(inside & (d != 0.0)) >= 3      # slip
    # box-active: held at m_hi by the box, not by the threshold
    assert np.sum((m == mat.m_hi) & (-g / ops.Mlump > mat.threshold_r)) >= 3
    j = incremental_objective(pr, u, m)
    j_ref = incremental_objective(pr, u, m_ref)
    assert abs(j - j_ref) <= 1e-10 * abs(j_ref)
    assert iters < iters_ref
