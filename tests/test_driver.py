import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import hydrisim
from hydrisim import diffusion, driver, energy_audit, heat, mech_phase
from hydrisim._snapshot import MeshText
from hydrisim.constitutive import desk_default_material, theta_of_w
from hydrisim.driver import (
    RunConfig,
    _write_snapshot,
    _write_vtk,
    desk_default_config,
    interpolant_eval,
    refine_study,
    run,
)
from hydrisim.errors import ConfigError, InvariantViolation, StepFailure
from hydrisim.grid import build_mesh, lumped_mass, vector_lumped_mass
from hydrisim.state import State

from _oracles import reference_snapshot, reference_vtk
from _streams import run_with_states


def desk_mat(**kw):
    return dataclasses.replace(desk_default_material(1), **kw)


# ---------------------------------------------------------------------------
# configuration and initial data


def test_invalid_initial_data_rejected():
    with pytest.raises(ConfigError, match="m0"):
        run(desk_default_config(resolution=(8,), T=0.002, m0=1.5))
    with pytest.raises(ConfigError, match="chi0"):
        run(desk_default_config(resolution=(8,), T=0.002, chi0=-0.1))
    with pytest.raises(ConfigError, match="theta0"):
        run(desk_default_config(resolution=(8,), T=0.002, theta0=-1.0))


@pytest.mark.parametrize("double_well, T, tau", [
    (26.0, 0.05, 0.01),
    # passes alpha^2/curv^2 = 4 but not the prox bound alpha/|curv| = 2
    (10.5, 3.0, 3.0),
], ids=["double_well-26", "double_well-10.5"])
def test_oversized_step_rejected_with_threshold(double_well, T, tau):
    mat = desk_mat(double_well=double_well)
    cfg = desk_default_config(resolution=(8,), material=mat, T=T, tau=tau)
    with pytest.raises(ConfigError, match=r"\(4\.6\)"):
        run(cfg)


@pytest.mark.parametrize("overrides, match", [
    (dict(lengths=(1e-300,)), "spacing"),
    (dict(dim=2, lengths=(1e-300, 1.0), resolution=(4, 4)), "spacing"),
    (dict(T=1e-300, tau=1e-300), "tau"),
], ids=["lengths-1d", "lengths-2d", "tau"])
def test_out_of_range_scales_rejected_before_step_one(overrides, match):
    # library callers get the same ConfigError as the INI parser, not a
    # ZeroDivisionError or a failed first solve
    cfg = desk_default_config(**{"resolution": (8,), "T": 0.002, **overrides})
    with pytest.raises(ConfigError, match=match):
        run(cfg)


def test_hydrogen_budget_gate():
    # 1.5e-3 of hydrogen in a unit segment and 1e-3 drained per step: the
    # lumped total turns negative in the second step, at t = 0.002
    cfg = desk_default_config(resolution=(12,), T=0.003, chi0=1.5e-3,
                              h_s={"left": -1.0})
    with pytest.raises(ConfigError, match=r"-5\.000e-04 at t = 0\.002"):
        driver.prepare(cfg)
    # an outflux the specimen can afford runs, and its mass moves by it
    traj = run(dataclasses.replace(cfg, chi0=0.5, h_s={"left": -0.1}))
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    assert gained == pytest.approx(-0.1 * traj.T, abs=1e-12)


def test_initial_enthalpy_from_temperature():
    cfg = desk_default_config(resolution=(8,), T=0.002, theta0=3.0,
                              h_s=None)
    traj, states = run_with_states(cfg)
    mat = traj.mat
    # quadratic law: w0 = (c0/2) theta0^2 = 9, and theta recovers 3
    assert np.allclose(states[0].w, 9.0, atol=1e-14)
    assert np.allclose(theta_of_w(mat, states[0].m, states[0].w), 3.0,
                       atol=1e-12)


def test_equilibrium_run_is_constant():
    cfg = desk_default_config(resolution=(12,), T=0.005, h_s=None)
    _, states = run_with_states(cfg)
    for st in states:
        assert np.allclose(st.u, 0.0, atol=1e-13)
        assert np.array_equal(st.m, states[0].m)
        assert np.allclose(st.chi, 0.0, atol=1e-14)
        assert np.allclose(st.w, 0.0, atol=1e-14)


def test_desk_run_invariants():
    traj, states = run_with_states(desk_default_config(resolution=(30,),
                                                       T=0.02))
    assert traj.n_steps == 20
    for r in traj.rows:
        assert r.min_chi >= -1e-12
        assert r.min_w >= -1e-12
    assert all(np.all((s.m >= 0.0) & (s.m <= 1.0)) for s in states)
    # a few undamped concentration Picard sweeps per step
    assert traj.meta["iterations"]["picard_chi"] <= 4 * traj.n_steps


def test_each_step_quantity_is_evaluated_once(monkeypatch):
    # the objective gate, the solve, the enthalpy solve and the ledger
    # read each state's arrays from its one StateTerms; the ledger takes
    # grad mu from the concentration solve; the banded concentration loop
    # fills its band without a CSR
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    # mu and its gradient once per step, in the concentration solve; the
    # initial state needs mu alone, and the driver binds no assemble_mu
    assert not hasattr(driver, "assemble_mu")
    for module in (diffusion, energy_audit):
        count(module, "assemble_mu")
    # the strain of each state once: the initial ledger row builds eps(u0)
    # and each step's final objective eps(u_new), which seeds the new
    # state's terms; the enthalpy solve takes the strain rate from the
    # two strains and binds no strain of its own
    assert not hasattr(heat, "strain")
    for module in (mech_phase, energy_audit):
        count(module, "strain")
    # a(chi) once per state, for the step leaving it and both ledger rows
    # it enters; sigma_a once per state left and once per later Picard
    # iterate of the enthalpy solve, whose first iterate reads the
    # state's own; the ledger binds no swelling curve of its own
    assert not hasattr(energy_audit, "swelling_curve")
    count(mech_phase, "swelling_curve")
    for module in (mech_phase, heat):
        count(module, "sigma_a_tensor")
    count(diffusion, "stiffness_with_diag")
    n = 4
    traj = run(desk_default_config(resolution=(20,), n_steps=n))
    assert traj.n_steps == n
    assert traj.mesh.half_bandwidth <= diffusion._BAND_MAX
    assert counts.get("assemble_mu") == n
    assert counts.get("strain") == 1 + n
    assert counts.get("swelling_curve") == n + 1
    picard_w = traj.meta["iterations"]["picard_w"]
    assert picard_w > n
    assert counts.get("sigma_a_tensor") == picard_w
    assert counts.get("stiffness_with_diag", 0) == 0


def test_charging_scenario_moves_phase():
    # a strong influx builds chi near the left boundary until the
    # chemical driving k*a(chi) beats the activation threshold
    cfg = desk_default_config(resolution=(30,), T=0.05,
                              h_s={"left": 5.0})
    traj, states = run_with_states(cfg)
    m_final = states[-1].m
    # rate viscosity alpha=1 keeps the transformation slow; what matters
    # is that the front end has clearly left m=0 while the far end has not
    assert float(m_final[0]) > 5e-3
    assert float(m_final[0]) > 10.0 * float(m_final[-1])
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    assert gained == pytest.approx(5.0 * traj.n_steps * traj.tau,
                                   abs=1e-12)


def test_nonmultiple_horizon_rounds_to_steps():
    cfg = desk_default_config(resolution=(8,), T=0.05, tau=4e-3, h_s=None)
    traj = run(cfg)
    assert traj.n_steps == 12
    assert traj.T == pytest.approx(0.048)


def test_body_force_momentum_budget():
    # Neumann boundaries: all internal forces are divergences, so the
    # discrete momentum grows by exactly the integrated body force
    cfg = desk_default_config(resolution=(15,), T=0.004, h_s=None, f=2.0)
    traj, states = run_with_states(cfg)
    Mv = vector_lumped_mass(traj.mesh)
    momentum = traj.mat.rho * float(
        np.sum(Mv * states[-1].velocity(traj.tau)))
    assert momentum == pytest.approx(2.0 * traj.n_steps * traj.tau,
                                     rel=1e-8)


def test_axis_ramp_sources_accepted():
    cfg = desk_default_config(
        resolution=(12,), T=0.003, h_s=None,
        q=lambda x, t: 0.2 + 0.1 * x[:, 0] + 5.0 * t)
    traj = run(cfg)
    assert traj.rows[-1].heat_supplied > 0.0
    assert min(r.min_w for r in traj.rows) >= -1e-12


def test_two_dimensional_run_with_boundary_traction():
    cfg = RunConfig(dim=2, lengths=(1.0, 1.0), resolution=(6, 6),
                    T=0.003, tau=1e-3,
                    h_s={"left": 0.5}, f_s={"right": (0.1, 0.0)})
    traj, states = run_with_states(cfg)
    assert states[-1].u.shape == (2 * traj.mesh.n_nodes,)
    for r in traj.rows:
        assert r.min_chi >= -1e-12
        assert r.min_w >= -1e-12
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    assert gained == pytest.approx(0.5 * 1.0 * traj.n_steps * traj.tau,
                                   abs=1e-12)


def test_broken_invariant_names_its_step(monkeypatch):
    monkeypatch.setattr(driver, "slack", lambda prev, row: -1.0)
    with pytest.raises(InvariantViolation) as info:
        run(desk_default_config(resolution=(8,), T=0.002))
    assert (str(info.value)
            == "step 1: energy-inequality slack -1.000e+00 negative")
    assert info.value.step == 1


def test_bare_side_source_reaches_every_side():
    # a bare number applies to each of the four sides of a 1 x 2 box, so
    # the hydrogen gained per step is tau * 0.5 * perimeter 6
    cfg = RunConfig(dim=2, lengths=(1.0, 2.0), resolution=(4, 5),
                    T=0.002, tau=1e-3, h_s=0.5)
    traj = run(cfg)
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    assert gained == pytest.approx(0.5 * 6.0 * traj.T, abs=1e-12)


def test_unknown_side_key_rejected_by_the_gate():
    # the only side check: a 1D mesh has no top
    cfg = desk_default_config(resolution=(8,), T=0.002, h_s={"top": 0.5})
    with pytest.raises(ConfigError,
                       match=r"h_s: unknown side 'top' \(have left, right\)"):
        run(cfg)


# ---------------------------------------------------------------------------
# interpolants


@pytest.fixture(scope="module")
def charged():
    return run_with_states(desk_default_config(resolution=(20,), T=0.01))


def test_interpolants_agree_at_nodes(charged):
    traj, states = charged
    for k in (0, 3, traj.n_steps):
        t = k * traj.tau
        aff = interpolant_eval(states, traj.tau, "chi", "affine", t)
        back = interpolant_eval(states, traj.tau, "chi", "backward", t)
        assert np.allclose(aff, getattr(states[k], "chi"), atol=1e-14)
        assert np.array_equal(back, states[k].chi)


def test_affine_midpoint_is_average(charged):
    traj, states = charged
    k = 4
    t = (k - 0.5) * traj.tau
    mid = interpolant_eval(states, traj.tau, "w", "affine", t)
    expect = 0.5 * (states[k - 1].w + states[k].w)
    assert np.allclose(mid, expect, atol=1e-15)


def test_forward_holds_older_state(charged):
    traj, states = charged
    k = 5
    t = (k - 0.5) * traj.tau
    fwd = interpolant_eval(states, traj.tau, "chi", "forward", t)
    assert np.array_equal(fwd, states[k - 1].chi)


def test_velocity_affine_starts_at_initial_velocity(charged):
    traj, states = charged
    v0 = interpolant_eval(states, traj.tau, "u", "velocity-affine", 0.0)
    assert np.allclose(v0, states[0].velocity(traj.tau), atol=1e-15)


def test_velocity_interpolant_second_difference(charged):
    traj, states = charged
    tau = traj.tau
    k = 6
    t1, t2 = (k - 0.75) * tau, (k - 0.25) * tau
    v1 = interpolant_eval(states, tau, "u", "velocity-affine", t1)
    v2 = interpolant_eval(states, tau, "u", "velocity-affine", t2)
    accel = (v2 - v1) / (t2 - t1)
    u = [states[j].u for j in (k, k - 1)]
    u_mm = states[k - 2].u if k >= 2 else states[0].u_prev
    expect = (u[0] - 2.0 * u[1] + u_mm) / tau ** 2
    assert np.allclose(accel, expect, atol=1e-9 * max(1.0,
                                                      np.abs(expect).max()))


def test_backward_minus_affine_identity(charged):
    # ||ubar - u_aff||_{L2(Q)} = tau/sqrt(3) * ||du/dt||_{L2(Q)}, exactly
    traj, states = charged
    tau, n = traj.tau, traj.n_steps
    Mv = vector_lumped_mass(traj.mesh)
    gauss = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
    acc = 0.0
    for k in range(1, n + 1):
        for g in gauss:
            t = (k - 1 + g) * tau
            d = (interpolant_eval(states, tau, "u", "backward", t)
                 - interpolant_eval(states, tau, "u", "affine", t))
            acc += 0.5 * tau * float(np.sum(Mv * d * d))
    lhs = np.sqrt(acc)
    rate = np.sqrt(sum(
        tau * float(np.sum(Mv * states[k].velocity(tau) ** 2))
        for k in range(1, n + 1)))
    assert abs(lhs - tau / np.sqrt(3.0) * rate) <= 1e-10


def test_interpolant_outside_horizon_rejected(charged):
    traj, states = charged
    with pytest.raises(ValueError):
        interpolant_eval(states, traj.tau, "u", "affine", traj.T * 1.5)
    with pytest.raises(ValueError):
        interpolant_eval(states, traj.tau, "u", "sideways", 0.0)
    with pytest.raises(ValueError, match="defined for u"):
        interpolant_eval(states, traj.tau, "w", "velocity-affine", 0.0)


# ---------------------------------------------------------------------------
# outputs and determinism


def test_outputs_written_and_deterministic(tmp_path):
    cfg = desk_default_config(resolution=(15,), T=0.005,
                              outdir=str(tmp_path / "a"), every_n=2)
    run(cfg)
    run(dataclasses.replace(cfg, outdir=str(tmp_path / "b")))
    a = (tmp_path / "a" / "energy.csv").read_bytes()
    b = (tmp_path / "b" / "energy.csv").read_bytes()
    assert a == b
    snaps = sorted(p.name for p in (tmp_path / "a").glob("fields_*.csv"))
    assert snaps[0] == "fields_000000.csv"
    assert "fields_000005.csv" in snaps
    header = (tmp_path / "a" / snaps[0]).read_text().splitlines()[0]
    assert header == "node,x,ux,m,chi,mu,w,theta"
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    assert manifest["n_steps"] == 5
    assert manifest["mesh"]["nodes"] == 15
    assert set(manifest["config"]) == {
        f.name for f in dataclasses.fields(RunConfig)} - {"material"}
    iters = manifest["iterations"]
    assert set(iters) == {"outer", "cg", "prox", "picard_chi", "cg_chi",
                          "chi_exact", "picard_w", "cg_w"}
    assert all(isinstance(v, int) and v >= 0 for v in iters.values())
    assert iters["picard_chi"] >= manifest["n_steps"]
    assert iters["picard_w"] >= manifest["n_steps"]
    # a 1D mesh has no tensor-grid preconditioner, so both run-constant
    # operators are factored and solved directly, without PCG,
    # and every 1D concentration system is solved exactly, not as a fallback
    assert iters["cg"] == iters["cg_w"] == iters["cg_chi"] == 0
    assert iters["chi_exact"] == 0
    assert iters == json.loads(
        (tmp_path / "b" / "run_manifest.json").read_text())["iterations"]


def test_pcg_counts_reach_manifest_in_2d(tmp_path):
    cfg = RunConfig(dim=2, lengths=(1.0, 1.0), resolution=(5, 5),
                    T=0.002, tau=1e-3, h_s={"left": 0.5},
                    outdir=str(tmp_path))
    traj = run(cfg)
    iters = json.loads((tmp_path / "run_manifest.json").read_text())[
        "iterations"]
    assert iters == traj.meta["iterations"]
    assert iters["cg"] > 0
    assert iters["cg_w"] > 0


def _awkward_state(mesh, seed):
    rng = np.random.default_rng(seed)
    n, d = mesh.n_nodes, mesh.dim
    u = rng.normal(size=n * d) / 3.0
    u[0] = -0.0
    w = rng.uniform(0.0, 1e-3, size=n) ** 3
    w[-1] = 0.0
    return State(k=0, t=0.0, u=u, u_prev=u, m=rng.uniform(size=n) / 7.0,
                 chi=np.full(n, 1e-300), w=w, mu=-rng.normal(size=n) * 1e12,
                 xi=np.zeros(n))


# 24x24: 576 nodes and 1058 elements, each several writer blocks with a
# partial last one; "relaid" is that mesh with Fortran-ordered coordinates
# and int32 element node ids, which the writers read as they come
@pytest.mark.parametrize("dim, resolution, relaid",
                         [(1, (3,), False), (2, (3, 3), False),
                          (2, (24, 24), False), (2, (24, 24), True)],
                         ids=["line-3", "square-3x3", "square-24x24",
                              "square-24x24-relaid"])
def test_snapshot_formats_pinned(tmp_path, dim, resolution, relaid):
    mesh = build_mesh(dim, (1.0,) * dim, resolution)
    if relaid:
        mesh = dataclasses.replace(mesh, coords=np.asfortranarray(mesh.coords),
                                   elems=mesh.elems.astype(np.int32))
        assert not mesh.coords.flags.c_contiguous
    mat = desk_default_material(dim)
    st = _awkward_state(mesh, dim)
    text = MeshText(mesh)
    fields = _write_snapshot(mesh, mat, st, str(tmp_path / "f.csv"), text)
    _write_vtk(mesh, mat, st, str(tmp_path / "f.vtk"), fields, text)
    assert (tmp_path / "f.csv").read_text() == reference_snapshot(mesh, mat,
                                                                  st)
    assert (tmp_path / "f.vtk").read_text() == reference_vtk(mesh, mat, st)


def test_vtk_snapshot_shape(tmp_path):
    cfg = desk_default_config(resolution=(8,), T=0.002,
                              outdir=str(tmp_path), vtk=True)
    run(cfg)
    text = (tmp_path / "fields_000002.vtk").read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "POINTS 8 double" in text
    assert "SCALARS theta double 1" in text


def _assert_snapshots_match_states(cfg, outdir):
    traj, states = run_with_states(cfg)
    for st in states:
        stem = outdir / ("fields_%06d" % st.k)
        assert (stem.with_suffix(".csv").read_text()
                == reference_snapshot(traj.mesh, traj.mat, st))
        assert (stem.with_suffix(".vtk").read_text()
                == reference_vtk(traj.mesh, traj.mat, st))


def test_run_snapshots_reuse_mesh_text(tmp_path):
    # the run formats its mesh text once, and every snapshot of the run
    # reuses it
    cfg = RunConfig(dim=2, lengths=(1.0, 1.0), resolution=(5, 4), T=0.003,
                    tau=1e-3, h_s={"left": 0.5}, every_n=1, vtk=True,
                    outdir=str(tmp_path))
    traj = run(cfg)
    assert len(list(tmp_path.glob("fields_*.vtk"))) == traj.n_steps + 1
    _assert_snapshots_match_states(cfg, tmp_path)


def test_mesh_text_belongs_to_its_run(tmp_path):
    # the first two meshes have the same node count and connectivity but
    # other coordinates; the third has another size
    points = []
    for i, (lengths, res) in enumerate([((1.0, 1.0), (4, 3)),
                                        ((2.0, 0.5), (4, 3)),
                                        ((1.0, 1.0), (6, 5))]):
        out = tmp_path / str(i)
        cfg = RunConfig(dim=2, lengths=lengths, resolution=res, T=0.001,
                        tau=1e-3, h_s={"left": 0.5}, vtk=True,
                        outdir=str(out))
        run(cfg)
        _assert_snapshots_match_states(cfg, out)
        vtk = (out / "fields_000000.vtk").read_text()
        points.append(vtk[vtk.index("POINTS"):vtk.index("CELLS")])
    assert len(set(points)) == 3


# ---------------------------------------------------------------------------
# run against a direct reader of the step stream


def _row_bits(row):
    return [float.hex(v) for v in dataclasses.astuple(row)]


def _write_as_a_reader(cfg, outdir):
    """Read ``steps(cfg)`` directly and write what ``run`` writes, each
    snapshot in-process; returns the trajectory."""
    outdir.mkdir()
    traj, states = run_with_states(cfg)
    text = MeshText(traj.mesh)
    n = traj.n_steps
    for st in states:
        if st.k in (0, n) or (cfg.every_n and st.k % cfg.every_n == 0):
            stem = str(outdir / ("fields_%06d" % st.k))
            fields = _write_snapshot(traj.mesh, traj.mat, st, stem + ".csv",
                                     text)
            _write_vtk(traj.mesh, traj.mat, st, stem + ".vtk", fields, text)
    energy_audit.write_energy_csv(traj, str(outdir / "energy.csv"))
    return traj


@pytest.mark.parametrize("every_n", [0, 1])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_run_without_states_matches_full_run(tmp_path, dim, every_n):
    # run keeps no state; its rows, files and iteration totals are those
    # of a caller that reads every state of steps
    space = dict(lengths=(1.0,), resolution=(9,)) if dim == 1 else dict(
        lengths=(1.0, 1.0), resolution=(5, 4))
    cfg = RunConfig(dim=dim, **space, n_steps=4, tau=1e-3,
                    chi0=lambda c: 0.3 + 0.5 * c[:, 0], theta0=0.1,
                    h_s={"left": 0.5}, every_n=every_n, vtk=True,
                    outdir=str(tmp_path / "run"))
    lean = run(cfg)
    full = _write_as_a_reader(cfg, tmp_path / "reader")
    assert ([_row_bits(r) for r in lean.rows]
            == [_row_bits(r) for r in full.rows])
    assert (lean.n_steps, lean.T) == (full.n_steps, full.T) == (4, 4e-3)
    assert lean.meta["iterations"] == full.meta["iterations"]
    assert sum(lean.meta["iterations"].values()) > 0
    names = sorted(p.name for p in (tmp_path / "reader").iterdir())
    assert "energy.csv" in names and "fields_000004.vtk" in names
    assert (sorted(p.name for p in (tmp_path / "run").iterdir())
            == sorted(names + ["run_manifest.json"]))
    for name in names:
        assert ((tmp_path / "run" / name).read_bytes()
                == (tmp_path / "reader" / name).read_bytes()), name
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["iterations"] == full.meta["iterations"]


def test_manifest_names_the_package_version(tmp_path):
    run(desk_default_config(resolution=(8,), T=0.002, outdir=str(tmp_path)))
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["version"] == hydrisim.__version__ != "unknown"


def test_stage_invariant_violation_names_its_step():
    # the left end loses 1e-3 per step from an empty specimen while the
    # right end gains 2e-3: the global hydrogen budget passes, and the
    # concentration stage finds a negative node on step 1
    cfg = desk_default_config(resolution=(12,), T=0.003,
                              h_s={"left": -1.0, "right": 2.0})
    with pytest.raises(InvariantViolation,
                       match=r"^step 1: negative concentration -1\.190e-02;"
                       ) as info:
        run(cfg)
    assert info.value.step == 1


def test_stage_solver_failure_names_its_step():
    # one concentration Picard iterate cannot meet picard_tol on a
    # charging step; the failure keeps its exit code and names the step
    cfg = desk_default_config(resolution=(12,), T=0.002, picard_max=1)
    with pytest.raises(StepFailure,
                       match=r"^step 1: concentration Picard loop stalled: "
                       ) as info:
        run(cfg)
    assert info.value.step == 1
    assert info.value.exit_code == 3


def test_cg_stall_through_run_keeps_its_iterations(monkeypatch):
    # a one-iteration CG budget stalls the first 2D enthalpy solve; the
    # failure gains its step and keeps what the solver spent
    def one_iteration(*args):
        op = heat.build_heat_operator(*args)
        op.max_iter = 1
        return op

    monkeypatch.setattr(driver, "build_heat_operator", one_iteration)
    cfg = RunConfig(dim=2, lengths=(1.0, 1.0), resolution=(6, 5),
                    T=0.002, tau=1e-3, h_s={"left": 0.5},
                    f_s={"right": (0.1, 0.0)})
    with pytest.raises(StepFailure,
                       match=r"^step 1: enthalpy solve: CG stalled ") as info:
        run(cfg)
    assert info.value.step == 1
    assert info.value.iterations == 1


# ---------------------------------------------------------------------------
# refinement studies


def test_refine_study_constant_trajectory_all_zero():
    cfg = desk_default_config(resolution=(10,), T=0.004, h_s=None)
    rep = refine_study(cfg, levels=2)
    for name in rep.fields:
        assert all(d == 0.0 for d in rep.diffs[name])


def test_refine_study_ratios_decay(tmp_path):
    cfg = desk_default_config(resolution=(20,), T=0.01)
    rep = refine_study(cfg, levels=3)
    assert rep.taus == [1e-3, 5e-4, 2.5e-4]
    for name in rep.fields:
        d = rep.diffs[name]
        assert d[1] <= d[0]
        assert all(r > 1.2 for r in rep.ratios[name])
    assert all(1.4 <= r <= 2.6 for r in rep.nu1_ratios)


def test_refine_study_memory_does_not_grow_with_the_step_count():
    # the levels advance in lockstep and sum as their states arrive, so
    # four times the steps leave the traced peak where it was (a study
    # that kept every state of every level doubled it on this grid)
    def peak(n_steps):
        cfg = RunConfig(dim=2, lengths=(1.0, 0.6), resolution=(12, 10),
                        tau=1e-3, n_steps=n_steps, h_s={"left": 0.5})
        tracemalloc.start()
        try:
            refine_study(cfg, levels=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # caches filled on first use are not the study's
    assert peak(8) <= 1.1 * peak(2)


def test_refine_study_needs_two_levels():
    with pytest.raises(ConfigError):
        refine_study(desk_default_config(), levels=1)
