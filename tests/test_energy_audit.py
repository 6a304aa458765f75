import dataclasses

import numpy as np
import pytest

from hydrisim.constitutive import desk_default_material
from hydrisim.driver import desk_default_config, run
from hydrisim.energy_audit import (
    CSV_COLUMNS,
    apriori_monitor,
    balance_residual,
    initial_row,
    ledger_columns,
    ledger_step,
    write_energy_csv,
)
from hydrisim.grid import build_mesh, lumped_mass
from hydrisim.state import State, Trajectory


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


def test_static_trajectory_all_residuals_zero():
    mesh = build_mesh(1, (1.0,), 9)
    mat = desk()
    tau = 1e-2
    s0 = make_state(mesh, 0, tau)
    s1 = make_state(mesh, 1, tau)
    rows = [initial_row(mesh, mat, s0, tau),
            ledger_step(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)]
    traj = Trajectory(mesh=mesh, mat=mat, tau=tau, states=[s0, s1],
                      rows=rows, meta={})
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
    row = ledger_step(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)
    # strain rate = 0.01 / (1 * 0.1) = 0.1; increment = tau * D * rate^2
    assert row.diss_viscous == pytest.approx(0.1 * 1.0 * 0.1 ** 2,
                                             abs=1e-16)


def test_activation_increment_is_threshold_times_travel():
    mesh = build_mesh(1, (1.0,), 5)
    mat = desk()
    tau = 1e-2
    rng = np.random.default_rng(0)
    Ml = lumped_mass(mesh)
    s0 = make_state(mesh, 0, tau, m=rng.uniform(0, 1, 5))
    s1 = make_state(mesh, 1, tau, m=rng.uniform(0, 1, 5))
    row = ledger_step(mesh, mat, s0, s1, tau, {}, ZERO_HEAT)
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
        ledger_step(mesh, desk(M0=M0), s0, s1, tau, {}, ZERO_HEAT)
        .diss_diffusion for M0 in (1.0, 2.5))
    assert base > 0.0
    assert scaled == pytest.approx(2.5 * base, rel=1e-14)


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
    traj = run(cfg)
    mon = apriori_monitor(traj)
    for name, val in mon.items():
        assert val == pytest.approx(0.0, abs=1e-13), name


def test_apriori_monitor_keys_and_finiteness():
    traj = run(desk_default_config(resolution=(20,), T=0.01))
    mon = apriori_monitor(traj)
    for name in ("u_rate_sup_l2", "u_h1_h1", "m_sup_h1", "m_rate_l2",
                 "m_sup_abs", "chi_sup_h1", "mu_sup_h1", "w_sup_l1",
                 "w_grad_l98", "accel_dual_l2", "w_rate_dual_l1",
                 "chi_rate_dual_l2", "m_lap_l2", "xi_l2"):
        assert name in mon
        assert np.isfinite(mon[name])
    assert mon["chi_sup_h1"] > 0.0
    assert mon["w_grad_l98"] > 0.0
