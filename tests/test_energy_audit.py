import dataclasses

import numpy as np
import pytest

from hydrisim.constitutive import (
    desk_default_material,
    phi1,
    s_a,
    sigma_a_tensor,
    swelling_curve,
)
from hydrisim.diffusion import assemble_mu
from hydrisim import driver
from hydrisim.driver import RunConfig, desk_default_config, run
from hydrisim.energy_audit import (
    CSV_COLUMNS,
    apriori_monitor,
    balance_residual,
    initial_row,
    ledger_columns,
    ledger_step,
    write_energy_csv,
)
from hydrisim.grid import (
    build_mesh,
    elem_mean,
    lumped_mass,
    stiffness,
    strain,
    strain_adjoint,
)
from hydrisim.mech_phase import StateTerms
from hydrisim.state import State, Trajectory

from _streams import run_with_states


def desk(**kw):
    return dataclasses.replace(desk_default_material(1), **kw)


def make_state(mesh, k, tau, **kw):
    n = mesh.n_nodes
    z = np.zeros(n)
    args = dict(k=k, t=k * tau, u=z.copy(), u_prev=z.copy(), m=z.copy(),
                chi=z.copy(), w=z.copy(), mu=z.copy(), xi=z.copy())
    args.update(kw)
    return State(**args)


ZERO_HEAT = {name: 0.0 for name in
             ("viscous", "adiabatic_stress", "phase", "activation",
              "diffusional", "source", "boundary")}


def stage_arrays(mesh, mat, prev, cur, tau):
    """The stage results ledger_step takes as keywords, rebuilt from the
    two states by the public functions."""
    return dict(grad_mu=assemble_mu(mesh, mat, cur.m, cur.chi)[1],
                strain_rate=(strain(mesh, cur.u) - strain(mesh, prev.u))
                / tau)


def state_arrays(mesh, mat, st):
    """Each array a ``StateTerms`` of ``st`` holds, evaluated from the
    state by the public functions."""
    eps = strain(mesh, st.u)
    m_e = elem_mean(mesh, st.m)
    sig = sigma_a_tensor(mat, m_e, elem_mean(mesh, st.w))
    return dict(strain=eps, m_mean=m_e, w_mean=elem_mean(mesh, st.w),
                elastic_strain=eps - m_e[:, None, None] * mat.eps_tr_mat,
                swelling=swelling_curve(mat, st.chi),
                phi1=phi1(mat, st.m, st.chi), sigma_a=sig,
                sigma_a_force=strain_adjoint(mesh, sig),
                s_a=s_a(mat, st.m, st.w))


def ledger(mesh, mat, prev, cur, tau, sources, heat_produced):
    """The ledger row from fresh ``StateTerms`` of the two states."""
    return ledger_step(mesh, mat, StateTerms(mesh, mat, prev),
                       StateTerms(mesh, mat, cur), tau, sources,
                       heat_produced,
                       **stage_arrays(mesh, mat, prev, cur, tau))


def test_static_trajectory_all_residuals_zero():
    mesh = build_mesh(1, (1.0,), 9)
    mat = desk()
    tau = 1e-2
    s0 = make_state(mesh, 0, tau)
    s1 = make_state(mesh, 1, tau)
    rows = [initial_row(mesh, mat, s0, tau)[0],
            ledger(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)]
    traj = Trajectory(mesh=mesh, mat=mat, tau=tau, rows=rows, meta={})
    for nu in (0.0, 0.5, 1.0):
        assert np.allclose(balance_residual(traj, nu), 0.0, atol=1e-15)
    r = rows[1]
    assert r.diss_viscous == r.diss_phase == r.diss_activation == 0.0


def test_single_element_viscous_hand_value():
    mesh = build_mesh(1, (1.0,), 2)  # one element, volume 1
    mat = desk()                      # viscosity modulus 1 in 1D
    tau = 0.1
    s0 = make_state(mesh, 0, tau)
    s1 = make_state(mesh, 1, tau, u=np.array([0.0, 0.01]),
                    u_prev=np.zeros(2))
    row = ledger(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)
    # strain rate = 0.01 / (1 * 0.1) = 0.1; increment = tau * D * rate^2
    assert row.diss_viscous == pytest.approx(0.1 * 1.0 * 0.1 ** 2,
                                             abs=1e-16)


def test_single_element_numerical_dissipation_hand_value():
    # one element of volume 1 and E = 1; the backward-difference squares
    # of the velocity, the elastic strain and the phase gradient
    mesh = build_mesh(1, (1.0,), 2)
    mat = desk()                      # rho 1, eps_tr 0.1, grad_coeff 0.01
    tau = 0.1
    s0 = make_state(mesh, 0, tau, m=np.array([0.2, 0.2]))
    s1 = make_state(mesh, 1, tau, u=np.array([0.0, 0.01]),
                    m=np.array([0.2, 0.6]))
    row = ledger(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)
    # velocity 0.1 at a node of lumped mass 1/2; elastic strain
    # -0.1 * 0.2 -> 0.01 - 0.1 * 0.4; phase gradient 0 -> 0.4
    expect = (0.5 * 0.5 * 0.1 ** 2 + 0.5 * (-0.03 + 0.02) ** 2
              + 0.5 * 0.01 * 0.4 ** 2)
    assert row.numdiss == pytest.approx(expect, rel=1e-12)


def test_activation_increment_is_threshold_times_travel():
    mesh = build_mesh(1, (1.0,), 5)
    mat = desk()
    tau = 1e-2
    rng = np.random.default_rng(0)
    Ml = lumped_mass(mesh)
    s0 = make_state(mesh, 0, tau, m=rng.uniform(0, 1, 5))
    s1 = make_state(mesh, 1, tau, m=rng.uniform(0, 1, 5))
    row = ledger(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)
    expect = mat.threshold_r * float(np.sum(Ml * np.abs(s1.m - s0.m)))
    assert row.diss_activation == pytest.approx(expect, abs=1e-15)
    assert row.diss_activation >= 0.0


def test_diffusion_dissipation_scales_with_mobility():
    # tau * M0 * |grad mu|^2 per element: linear in the mobility M0
    mesh = build_mesh(1, (1.0,), 9)
    tau = 1e-2
    chi = 0.3 + 0.2 * mesh.coords[:, 0]
    s0 = make_state(mesh, 0, tau, chi=chi)
    s1 = make_state(mesh, 1, tau, chi=chi)
    base, scaled = (
        ledger(mesh, desk(M0=M0), s0, s1, tau, {}, ZERO_HEAT)
        .diss_diffusion for M0 in (1.0, 2.5))
    assert base > 0.0
    assert scaled == pytest.approx(2.5 * base, rel=1e-14)


def test_driver_hands_the_ledger_its_stage_arrays(monkeypatch):
    # a phase change with the box active: m sticks at 0 where chi is near
    # 0 (xi != 0) and grows where chi is near 1 (gap_m != 0); theta0 > 0
    # makes the adiabatic couplings nonzero from the first step
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, dict(kwargs)))
        return ledger_step(*args, **kwargs)

    monkeypatch.setattr(driver, "ledger_step", recording)
    traj, states = run_with_states(RunConfig(
        dim=2, lengths=(1.0, 1.0), resolution=(6, 5), tau=1e-3, n_steps=3,
        chi0=lambda c: 1.2 * c[:, 0], theta0=0.1, h_s={"left": 0.5}))
    mesh, mat, tau = traj.mesh, traj.mat, traj.tau
    assert len(calls) == traj.n_steps
    for k, (args, kwargs) in enumerate(calls, start=1):
        prev, cur = states[k - 1], states[k]
        prev_terms, terms = args[2], args[3]
        assert prev_terms.state is prev and terms.state is cur
        # each step hands the next the terms it built, bit for bit the
        # arrays the state gives
        if k > 1:
            assert prev_terms is calls[k - 2][0][3]
        for built, st in ((prev_terms, prev), (terms, cur)):
            for name, ref in state_arrays(mesh, mat, st).items():
                assert np.array_equal(getattr(built, name), ref), name
        for name, ref in stage_arrays(mesh, mat, prev, cur, tau).items():
            assert np.array_equal(kwargs[name], ref), name
        got = traj.rows[k]
        assert np.any(cur.xi != 0.0)
        assert got.gap_m != 0.0 and got.adiab_expl != 0.0
        # the same sources and enthalpy breakdown, the terms and the stage
        # arrays rebuilt
        ref = ledger(mesh, mat, prev, cur, tau, args[5], args[6])
        for f in dataclasses.fields(got):
            assert getattr(ref, f.name) == getattr(got, f.name), f.name


def test_dissipation_columns_nonnegative_on_run():
    traj = run(desk_default_config(resolution=(25,), T=0.02))
    for r in traj.rows[1:]:
        assert r.diss_viscous >= 0.0
        assert r.diss_phase >= 0.0
        assert r.diss_activation >= 0.0
        assert r.diss_diffusion >= 0.0


def test_mechanical_audit_is_solver_noise():
    cfg = desk_default_config(resolution=(30,), T=0.02)
    traj = run(cfg)
    nu0 = balance_residual(traj, 0.0)
    budget = 10.0 * traj.n_steps * (1e-10 + 1e-12)
    assert float(np.abs(nu0).max()) <= budget


def test_half_slack_nonnegative_and_nu1_first_order():
    cfg = desk_default_config(resolution=(25,), T=0.02)
    traj = run(cfg)
    slack = balance_residual(traj, 0.5)
    assert float(slack.min()) >= -1e-9
    fine = run(desk_default_config(resolution=(25,), T=0.02, tau=5e-4))
    d_coarse = abs(float(balance_residual(traj, 1.0)[-1]))
    d_fine = abs(float(balance_residual(fine, 1.0)[-1]))
    assert 1.4 <= d_coarse / d_fine <= 2.6


def test_balance_residual_rejects_other_nu():
    traj = run(desk_default_config(resolution=(10,), T=0.002))
    with pytest.raises(ValueError):
        balance_residual(traj, 0.25)


def test_hydrogen_ledger_matches_influx():
    cfg = desk_default_config(resolution=(30,), T=0.02)
    traj = run(cfg)
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    assert gained == pytest.approx(0.5 * traj.n_steps * traj.tau, abs=1e-12)


def test_energy_csv_schema_and_format(tmp_path):
    traj = run(desk_default_config(resolution=(12,), T=0.003))
    path = tmp_path / "energy.csv"
    write_energy_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(traj.rows) + 1
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert float(first["t"]) == 0.0
    assert float(first["residual_nu0"]) == 0.0
    cols = ledger_columns(traj)
    assert set(cols) == set(CSV_COLUMNS)
    assert float(cols["slack_nu05"][1:].min()) >= -1e-9


def test_work_column_accounts_all_external_input():
    cfg = desk_default_config(resolution=(15,), T=0.005,
                              q=0.3, q_s={"right": 0.1})
    traj = run(cfg)
    cols = ledger_columns(traj)
    for i, r in enumerate(traj.rows):
        assert cols["work_ext"][i] == pytest.approx(
            r.work_mech + r.heat_supplied, abs=1e-18)
    # constant q over unit volume plus q_s on one end, per step
    expect = traj.tau * (0.3 * 1.0 + 0.1)
    assert traj.rows[1].heat_supplied == pytest.approx(expect, abs=1e-15)


def test_apriori_monitor_zero_run_is_zero():
    cfg = desk_default_config(resolution=(10,), T=0.002, h_s=None)
    traj, states = run_with_states(cfg)
    mon = apriori_monitor(traj.mesh, traj.mat, traj.tau, states)
    for name, val in mon.items():
        assert val == pytest.approx(0.0, abs=1e-13), name


def test_apriori_monitor_keys_and_finiteness():
    cfg = desk_default_config(resolution=(20,), T=0.01)
    traj, states = run_with_states(cfg)
    mon = apriori_monitor(traj.mesh, traj.mat, traj.tau, states)
    for name in ("u_rate_sup_l2", "u_h1_h1", "m_sup_h1", "m_rate_l2",
                 "m_sup_abs", "chi_sup_h1", "mu_sup_h1", "w_sup_l1",
                 "w_grad_l98", "accel_dual_l2", "w_rate_dual_l1",
                 "chi_rate_dual_l2", "m_lap_l2", "xi_l2"):
        assert name in mon
        assert np.isfinite(mon[name])
    assert mon["chi_sup_h1"] > 0.0
    assert mon["w_grad_l98"] > 0.0
    # read one state at a time, as the step stream yields them, the
    # running maxima and sums give the same bits
    streamed = apriori_monitor(traj.mesh, traj.mat, cfg.tau, (
        state for state, *_ in driver.steps(cfg)))
    assert ({k: float.hex(v) for k, v in streamed.items()}
            == {k: float.hex(v) for k, v in mon.items()})


@pytest.mark.parametrize("cfg", [
    desk_default_config(resolution=(20,), T=0.01),
    RunConfig(dim=2, lengths=(1.0, 0.6), resolution=(7, 5), T=0.003,
              h_s={"left": 0.5}),
], ids=["line20", "grid7x5"])
def test_apriori_dual_norms_match_a_dense_riesz_solve(cfg):
    traj, states = run_with_states(cfg)
    mesh, tau = traj.mesh, traj.tau
    Ml = lumped_mass(mesh)
    R = np.diag(Ml) + stiffness(mesh, 1.0).toarray()

    def dual_sq(v):
        load = Ml * v
        return load @ np.linalg.solve(R, load)

    rates = [s.velocity(tau) for s in states]
    accel = [traj.mat.rho * (b - a).reshape(-1, mesh.dim) / tau
             for a, b in zip(rates[:-1], rates[1:])]
    steps = list(zip(states[:-1], states[1:]))
    ref = {
        "accel_dual_l2": np.sqrt(sum(
            tau * sum(dual_sq(a[:, c]) for c in range(mesh.dim))
            for a in accel)),
        "w_rate_dual_l1": sum(
            tau * np.sqrt(dual_sq((b.w - a.w) / tau)) for a, b in steps),
        "chi_rate_dual_l2": np.sqrt(sum(
            tau * dual_sq((b.chi - a.chi) / tau) for a, b in steps)),
    }
    mon = apriori_monitor(mesh, traj.mat, tau, states)
    for name, val in ref.items():
        assert val > 0.0, name
        assert mon[name] == pytest.approx(val, rel=1e-10, abs=0.0), name
