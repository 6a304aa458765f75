"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion; each test also prints its measured numbers (visible with
``-s`` or in the failure report).
"""

import dataclasses
import time

import numpy as np
import pytest

from hydrisim.constitutive import (
    chemical_potential,
    d2phi1_dchichi,
    d2phi1_dmchi,
    d2phi1_dmm,
    desk_default_material,
    dphi1_dm,
    dphi3_dtheta,
    dtheta_dm,
    phi1,
    phi3,
    swelling_curve,
    theta_of_w,
)
from hydrisim.driver import RunConfig, desk_default_config, refine_study, run
from hydrisim.energy_audit import APRIORI_ASSERTED, balance_residual
from hydrisim.errors import ConfigError
from hydrisim.mech_phase import phase_nodal_prox, tau_max

from _oracles import cos_mode_amplitude, prox_instances, prox_scan
from _streams import run_with_states


def ok(num, text):
    print("PASS %2d  %s" % (num, text))


@pytest.fixture(scope="module")
def desk_run():
    t0 = time.perf_counter()
    traj = run(desk_default_config())
    return traj, time.perf_counter() - t0


def test_01_nonnegativity_and_runtime(desk_run):
    traj, elapsed = desk_run
    min_chi = min(r.min_chi for r in traj.rows)
    min_w = min(r.min_w for r in traj.rows)
    assert min_chi >= -1e-12
    assert min_w >= -1e-12
    assert elapsed < 10.0
    ok(1, "non-negativity: min chi=%.2e min w=%.2e, %.2fs"
       % (min_chi, min_w, elapsed))


def test_02_exact_hydrogen_conservation(desk_run):
    closed = run(desk_default_config(
        h_s=None, chi0=lambda c: 0.4 + 0.2 * np.cos(np.pi * c[:, 0])))
    drift = abs(closed.rows[-1].mass_chi - closed.rows[0].mass_chi)
    assert drift <= 1e-12

    traj, _ = desk_run
    gained = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
    expected = 0.5 * traj.n_steps * traj.tau  # flux 0.5, |Gamma_left| = 1
    assert gained == pytest.approx(expected, abs=1e-12)
    ok(2, "conservation: closed drift=%.2e, charging error=%.2e"
       % (drift, abs(gained - expected)))


def test_03_energy_inequality_slack(desk_run):
    traj, _ = desk_run
    slack = balance_residual(traj, 0.5)
    assert slack.min() >= -1e-9
    ok(3, "energy inequality: worst nu=1/2 slack %.3e" % slack.min())


def test_04_total_energy_consistency():
    rep = refine_study(desk_default_config(), levels=3)
    assert len(rep.nu1_ratios) == 2
    for ratio in rep.nu1_ratios:
        assert 1.4 <= ratio <= 2.6
    ok(4, "nu=1 defect ratios: %s" % ", ".join("%.3f" % r
                                               for r in rep.nu1_ratios))


def test_05_stability_threshold():
    mat = desk_default_material(1, double_well=26.0)
    assert tau_max(mat, 10.0) == pytest.approx(1.0 / 256.0, rel=1e-15)
    with pytest.raises(ConfigError, match=r"\(4\.6\)"):
        run(desk_default_config(resolution=(12,), material=mat, tau=0.01))
    accepted = run(desk_default_config(resolution=(12,), material=mat,
                                       tau=0.003, n_steps=5))
    assert accepted.n_steps == 5
    ok(5, "threshold 1/256: tau=0.01 rejected, tau=0.003 accepted")


def test_06_analytic_diffusion_oracle():
    mat = desk_default_material(1, coupling_k=0.0)  # mu = 5*chi left
    cfg = RunConfig(dim=1, resolution=(200,), T=0.02, tau=1e-5,
                    n_steps=2000, material=mat, h_s=None,
                    chi0=lambda c: 0.5 + 0.1 * np.cos(np.pi * c[:, 0]))
    t0 = time.perf_counter()
    traj, states = run_with_states(cfg)
    elapsed = time.perf_counter() - t0
    x = traj.mesh.coords[:, 0]
    a0 = cos_mode_amplitude(x, traj.mesh.lumped, states[0].chi)
    an = cos_mode_amplitude(x, traj.mesh.lumped, states[-1].chi)
    rate = -np.log(an / a0) / (traj.n_steps * traj.tau)
    target = 5.0 * np.pi ** 2
    assert abs(rate - target) <= 0.02 * target
    assert elapsed < 30.0
    ok(6, "diffusion decay %.4f vs 5*pi^2=%.4f (%.2f%%), %.1fs"
       % (rate, target, 100 * abs(rate - target) / target, elapsed))


def test_07_analytic_conduction_oracle():
    mat = desk_default_material(1, heat_law="linear", c0=1.0, K0=1.0,
                                alpha_th=0.0)
    cfg = RunConfig(dim=1, resolution=(200,), T=0.02, tau=1e-5,
                    n_steps=2000, material=mat, h_s=None,
                    theta0=lambda c: 1.0 + 0.5 * np.cos(np.pi * c[:, 0]))
    traj, states = run_with_states(cfg)
    x = traj.mesh.coords[:, 0]
    a0 = cos_mode_amplitude(x, traj.mesh.lumped, states[0].w)
    an = cos_mode_amplitude(x, traj.mesh.lumped, states[-1].w)
    rate = -np.log(an / a0) / (traj.n_steps * traj.tau)
    target = np.pi ** 2
    assert abs(rate - target) <= 0.02 * target
    ok(7, "conduction decay %.4f vs pi^2=%.4f (%.2f%%)"
       % (rate, target, 100 * abs(rate - target) / target))


def test_08_derivatives_match_central_differences():
    # double-well and c0 slope switched on so no derivative path is
    # identically zero at the sampled points
    mat = desk_default_material(1, double_well=26.0, c0_m_slope=0.3)
    lin = dataclasses.replace(mat, heat_law="linear", c0=1.3)
    rng = np.random.default_rng(20260816)

    def central(f, x, h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    def check(label, fd, an):
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an)), \
            "%s: fd=%.12g analytic=%.12g" % (label, fd, an)

    for _ in range(100):
        m = rng.uniform(0.05, 0.95)
        chi = rng.uniform(0.05, 3.0)
        theta = rng.uniform(0.1, 4.0)
        w = rng.uniform(0.1, 5.0)
        hm, hc, ht = 1e-6, 1e-6 * max(1.0, chi), 1e-6 * max(1.0, theta)
        check("dphi1/dm",
              central(lambda v: phi1(mat, v, chi), m, hm),
              dphi1_dm(mat, m, chi))
        check("dphi1/dchi",
              central(lambda v: phi1(mat, m, v), chi, hc),
              chemical_potential(mat, m, chi))
        check("d2phi1/dm2",
              central(lambda v: dphi1_dm(mat, v, chi), m, hm),
              d2phi1_dmm(mat, m, chi))
        check("d2phi1/dmdchi",
              central(lambda v: dphi1_dm(mat, m, v), chi, hc),
              d2phi1_dmchi(mat, m, chi))
        check("d2phi1/dchi2",
              central(lambda v: chemical_potential(mat, m, v), chi, hc),
              d2phi1_dchichi(mat, m, chi))
        check("da/dchi",
              central(lambda v: swelling_curve(mat, v, 0), chi, hc),
              swelling_curve(mat, chi, 1))
        check("d2a/dchi2",
              central(lambda v: swelling_curve(mat, v, 1), chi, hc),
              swelling_curve(mat, chi, 2))
        for law in (mat, lin):
            check("dphi3/dtheta",
                  central(lambda v: phi3(law, m, v), theta, ht),
                  dphi3_dtheta(law, m, theta))
            check("dtheta/dm",
                  central(lambda v: theta_of_w(law, v, w), m, hm),
                  dtheta_dm(law, m, w))
    ok(8, "9 derivative families vs central differences at 100 points")


def test_09_prox_kernel_exactness():
    worst = 0.0
    for a_quad, b, p, kappa in prox_instances(1000, seed=7):
        got = phase_nodal_prox(a_quad, b, p, kappa, 0.0, 1.0)
        ref = prox_scan(a_quad, b, p, kappa, 0.0, 1.0, resolution=1e-6)
        worst = max(worst, abs(got - ref))
        assert abs(got - ref) <= 2e-6
    ok(9, "prox vs exhaustive scan on 1000 instances, worst %.2e" % worst)


def test_10_apriori_uniformity_and_cauchy_decrease():
    rep = refine_study(desk_default_config(tau=4e-3), levels=3)
    assert rep.taus == [4e-3, 2e-3, 1e-3]
    worst = ("", 0.0)
    for name in APRIORI_ASSERTED:
        vals = np.array([mon[name] for mon in rep.apriori])
        scale = np.abs(vals).max()
        drift = float(vals.max() - vals.min()) / scale if scale > 0 else 0.0
        if drift > worst[1]:
            worst = (name, drift)
        assert drift < 0.10, "%s varies by %.1f%%" % (name, 100 * drift)
    for name in rep.fields:
        d = rep.diffs[name]
        for a, b in zip(d, d[1:]):
            assert b <= a
            if a > 0.0:
                assert b < a
    ok(10, "apriori drift worst %.2f%% (%s); interpolant diffs decrease"
       % (100 * worst[1], worst[0]))


def test_11_determinism_byte_identical(tmp_path):
    cfg = desk_default_config(outdir=str(tmp_path / "a"))
    run(cfg)
    run(dataclasses.replace(cfg, outdir=str(tmp_path / "b")))
    a = (tmp_path / "a" / "energy.csv").read_bytes()
    b = (tmp_path / "b" / "energy.csv").read_bytes()
    assert a == b
    ok(11, "energy.csv byte-identical across reruns (%d bytes)" % len(a))
