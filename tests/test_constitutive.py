"""Pointwise constitutive laws: frozen hand values, finite-difference
oracles and the assumption validator."""

import numpy as np
import pytest

from hydrisim.constitutive import (
    CheckResult,
    MaterialModel,
    chemical_potential,
    d2phi1_dchichi,
    d2phi1_dmchi,
    d2phi1_dmm,
    desk_default_material,
    dphi1_dm,
    dphi3_dtheta,
    dtheta_dm,
    inf_d2phi1_dmm,
    invert_omega,
    omega_of_theta,
    phi1,
    phi3,
    s_a,
    sigma_a,
    stress,
    swelling_curve,
    theta_of_w,
    validate_material,
)
from hydrisim.errors import MaterialError


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def mat():
    return desk_default_material()


# ---------------------------------------------------------------------------
# heat law and enthalpy transform


def test_omega_quadratic_hand_value(mat):
    assert omega_of_theta(mat, 0.3, 3.0) == pytest.approx(9.0, rel=1e-14)


def test_omega_linear_hand_value():
    lin = desk_default_material(heat_law="linear")
    assert omega_of_theta(lin, 0.3, 3.0) == pytest.approx(6.0, rel=1e-14)


def test_omega_vanishes_at_zero_temperature(mat):
    assert omega_of_theta(mat, 0.7, 0.0) == 0.0
    lin = desk_default_material(heat_law="linear")
    assert omega_of_theta(lin, 0.7, 0.0) == 0.0


def test_theta_of_w_inverts_quadratic(mat):
    assert theta_of_w(mat, 0.0, 9.0) == pytest.approx(3.0, rel=1e-14)


def test_round_trip_both_laws():
    for law in ("quadratic", "linear"):
        m = desk_default_material(heat_law=law)
        theta = np.array([0.0, 0.01, 0.5, 2.0, 37.0])
        w = omega_of_theta(m, 0.2, theta)
        back = theta_of_w(m, 0.2, w)
        assert np.allclose(back, theta, rtol=1e-12, atol=1e-15)


def test_theta_of_w_rejects_negative(mat):
    with pytest.raises(ValueError):
        theta_of_w(mat, 0.0, -1e-3)


def test_generic_inversion_matches_closed_form():
    for law in ("quadratic", "linear"):
        m = desk_default_material(heat_law=law, c0=1.7)
        w = np.array([0.0, 1e-6, 0.3, 9.0, 1e4])
        ref = theta_of_w(m, 0.4, w)
        gen = invert_omega(m, 0.4, w)
        assert np.allclose(gen, ref, rtol=1e-12, atol=1e-13)


def test_omega_is_legendre_residual_of_phi3(mat):
    # omega must equal phi3 - theta * d_theta phi3 for the tuned phi3_hat
    thetas = np.linspace(0.05, 5.0, 23)
    for law in ("quadratic", "linear"):
        m = desk_default_material(heat_law=law)
        lhs = phi3(m, 0.3, thetas) - thetas * dphi3_dtheta(m, 0.3, thetas)
        assert np.allclose(lhs, omega_of_theta(m, 0.3, thetas), rtol=1e-12)


def test_dphi3_dtheta_matches_fd(mat):
    for law in ("quadratic", "linear"):
        m = desk_default_material(heat_law=law)
        for theta in (0.2, 1.0, 4.1):
            fd = central_diff(lambda t: phi3(m, 0.37, t), theta)
            assert dphi3_dtheta(m, 0.37, theta) == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# chemical energy


def test_swelling_curve_values(mat):
    assert swelling_curve(mat, 1.0) == pytest.approx(0.1, rel=1e-14)
    assert swelling_curve(mat, 1.0, 1) == pytest.approx(0.1, rel=1e-14)
    assert swelling_curve(mat, 1.0, 2) == pytest.approx(-0.1, rel=1e-14)
    assert swelling_curve(mat, 0.0, 1) == 0.0


def test_chemical_potential_hand_values(mat):
    assert chemical_potential(mat, 0.5, 1.0) == pytest.approx(4.6, rel=1e-13)
    assert chemical_potential(mat, 0.1, 1.0) == pytest.approx(5.0, rel=1e-13)
    assert np.all(chemical_potential(mat, np.array([0.0, 0.4, 1.0]), 0.0) == 0.0)


def test_dphi1_dm_hand_value(mat):
    assert dphi1_dm(mat, 0.5, 1.0) == pytest.approx(4.0, rel=1e-13)


def test_dphi1_dm_linear_in_m_without_well(mat):
    m = np.linspace(0, 1, 7)
    vals = dphi1_dm(mat, m, 0.8)
    slopes = np.diff(vals) / np.diff(m)
    assert np.allclose(slopes, mat.coupling_k, rtol=1e-12)


def test_phi1_derivatives_match_fd():
    rng = np.random.default_rng(42)
    mat = desk_default_material(double_well=26.0)
    for _ in range(100):
        m = rng.uniform(0.0, 1.0)
        chi = rng.uniform(0.0, 3.0)
        fd_m = central_diff(lambda v: phi1(mat, v, chi), m)
        fd_c = central_diff(lambda v: phi1(mat, m, v), chi)
        assert dphi1_dm(mat, m, chi) == pytest.approx(fd_m, rel=1e-6, abs=1e-9)
        assert chemical_potential(mat, m, chi) == pytest.approx(fd_c, rel=1e-6, abs=1e-9)
        fd_cc = central_diff(lambda v: chemical_potential(mat, m, v), chi)
        fd_mc = central_diff(lambda v: dphi1_dm(mat, v, chi), m, 1e-5)
        assert d2phi1_dchichi(mat, m, chi) == pytest.approx(fd_cc, rel=1e-6, abs=1e-9)
        assert d2phi1_dmm(mat, m, chi) == pytest.approx(fd_mc, rel=1e-5, abs=1e-8)
        fd_x = central_diff(lambda v: chemical_potential(mat, v, chi), m)
        assert d2phi1_dmchi(mat, m, chi) == pytest.approx(fd_x, rel=1e-6, abs=1e-9)


def test_inf_phase_curvature():
    base = desk_default_material()
    assert inf_d2phi1_dmm(base) == pytest.approx(10.0)
    dw = desk_default_material(double_well=26.0)
    # 12 m^2 - 12 m + 2 reaches -1 at m = 1/2, so the infimum is k - d0
    assert inf_d2phi1_dmm(dw) == pytest.approx(-16.0, rel=1e-14)


# ---------------------------------------------------------------------------
# adiabatic terms and stress


def test_stress_hand_values(mat):
    assert stress(mat, 0.1, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert stress(mat, 0.0, 0.0, 9.0) == pytest.approx(-0.3, rel=1e-13)
    assert stress(mat, 0.2, 1.0, 0.0) == pytest.approx(0.1, rel=1e-13)


def test_sigma_a_hand_value(mat):
    assert sigma_a(mat, 0.0, 9.0) == pytest.approx(-0.3, rel=1e-13)
    assert sigma_a(mat, 0.5, 0.0) == 0.0


def test_s_a_hand_value(mat):
    # theta = 3, C alpha : eps_tr = 1 * 0.1 * 0.1 = 0.01
    assert s_a(mat, 0.0, 9.0) == pytest.approx(0.03, rel=1e-13)
    assert s_a(mat, 0.5, 0.0) == 0.0


def test_s_a_matches_fd_of_phi3(mat):
    for w in (0.5, 9.0, 40.0):
        theta = theta_of_w(mat, 0.3, w)
        fd = central_diff(lambda v: phi3(mat, v, theta), 0.3)
        assert s_a(mat, 0.3, w) == pytest.approx(fd, rel=1e-7)


def test_sigma_a_sqrt_growth_quadratic(mat):
    w = np.logspace(0, 6, 200)
    ratio = np.abs(sigma_a(mat, 0.5, w)) / np.sqrt(1.0 + w)
    assert ratio.max() < 1.0          # bounded, C = |C alpha| sqrt(2/c0)
    assert ratio[-1] <= ratio.max() * (1 + 1e-9)
    expected = mat.E * 0.1 * np.sqrt(2.0 / mat.c0)
    assert ratio[-1] == pytest.approx(expected, rel=1e-3)


def test_sigma_a_growth_violated_by_linear_law():
    lin = desk_default_material(heat_law="linear")
    w = np.logspace(0, 6, 200)
    ratio = np.abs(sigma_a(lin, 0.5, w)) / np.sqrt(1.0 + w)
    assert ratio[-1] > 10.0 * ratio[0]


def test_2d_sigma_a_is_isotropic_matrix():
    mat2 = desk_default_material(dim=2)
    sig = sigma_a(mat2, 0.0, 9.0)
    assert sig.shape == (2, 2)
    assert sig[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert sig[0, 0] == pytest.approx(sig[1, 1], rel=1e-14)
    assert sig[0, 0] < 0


# ---------------------------------------------------------------------------
# transport coefficients


def test_transport_hand_values(mat):
    # M1 = M0 d2phi1/dchi2, M2 = M0 d2phi1/dm dchi, L = K0 dtheta/dm
    assert mat.M0 * d2phi1_dchichi(mat, 0.5, 1.0) == pytest.approx(
        5.5, rel=1e-13)
    assert mat.M0 * d2phi1_dmchi(mat, 0.5, 1.0) == pytest.approx(
        -1.0, rel=1e-13)
    assert mat.K0 == pytest.approx(1.0)
    assert mat.M0 == pytest.approx(1.0)
    assert mat.K0 * dtheta_dm(mat, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cross_conduction_appears_with_m_dependent_c0():
    mat = desk_default_material(c0_m_slope=0.3)
    assert mat.K0 * dtheta_dm(mat, 0.5, 2.0) != 0.0


# ---------------------------------------------------------------------------
# validator


def test_validator_passes_desk_default(mat):
    report = validate_material(mat, chi_max=3.0, n_samples=10000)
    assert report.ok
    a = next(c for c in report.checks if c.name.startswith("(3.1a)"))
    assert a.margin >= 1.0


def test_validator_fails_steep_swelling():
    steep = desk_default_material(a1=1.0)
    report = validate_material(steep)
    assert not report.ok
    a = next(c for c in report.checks if c.name.startswith("(3.1a)"))
    assert a.status == "fail"
    with pytest.raises(MaterialError):
        report.raise_for_failure()


def test_validator_fails_negative_threshold():
    bad = desk_default_material(threshold_r=-0.01)
    report = validate_material(bad)
    zeta = next(c for c in report.checks
                if c.name == "zeta convex 1-homogeneous")
    assert zeta.status == "fail"
    assert not report.ok


def test_validator_warns_on_linear_law_growth():
    lin = desk_default_material(heat_law="linear")
    report = validate_material(lin)
    assert report.ok                   # warned, not failed
    names = [c.name for c in report.warnings]
    assert any(n.startswith("(3.1l)") for n in names)
    assert any(n.startswith("(3.1m)") for n in names)


def test_validator_flags_m_dependent_c0():
    mat = desk_default_material(c0_m_slope=0.5)
    report = validate_material(mat)
    assert report.ok
    assert any(c.name.startswith("(3.1m)") for c in report.warnings)


def test_material_rejects_bad_heat_law():
    with pytest.raises(MaterialError):
        MaterialModel(heat_law="cubic")


def test_material_rejects_inverted_box():
    with pytest.raises(MaterialError):
        MaterialModel(m_lo=1.0, m_hi=0.0)


def test_check_result_formatting():
    c = CheckResult("demo", "pass", 1.25)
    assert "demo" in str(c) and "pass" in str(c)
