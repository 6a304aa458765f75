"""Pointwise constitutive laws of the hydride storage model.

The stored energy density splits into four parts,

    phi(eps, m, grad m, chi, theta)
        = phi1(m, chi) + phi2(eps, m) + phi3(m, theta)
          + theta * phi4(eps, m) + (lambda/2) |grad m|^2,

with the concrete forms

    phi1 = (k/2) |m - a(chi)|^2 + (kappa/2) chi^2 + d0 m^2 (1-m)^2,
    phi2 = (1/2) C(eps - eps_tr m) : (eps - eps_tr m) + indicator of K,
    phi3 = (theta^2/2) C alpha : alpha + theta C alpha : eps_tr m
           + phi3_hat(m, theta),
    phi4 = -C alpha : eps.

Temperature is eliminated through the enthalpy transform
w = omega(m, theta) = phi3 - theta d_theta phi3, which is strictly
increasing in theta, so theta = theta(m, w) is well defined for w >= 0.
Two heat laws are built in: omega = (c0/2) theta^2 (the default, it keeps
the adiabatic terms under square-root growth) and omega = c0 theta (handy
for linear conduction oracles; its growth is flagged by the validator).

Everything here is a pure function of a MaterialModel and scalar or
array-valued state, broadcasting in the numpy way.  The adiabatic stress
sigma_a and microforce s_a are extended by zero for w <= 0; that property
is what lets the heat step keep the enthalpy non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MaterialError

__all__ = [
    "MaterialModel",
    "desk_default_material",
    "omega_of_theta",
    "theta_of_w",
    "invert_omega",
    "phi1",
    "phi3",
    "chemical_potential",
    "dphi1_dm",
    "d2phi1_dchichi",
    "d2phi1_dmchi",
    "chi_curvatures",
    "d2phi1_dmm",
    "inf_d2phi1_dmm",
    "swelling_curve",
    "stress",
    "sigma_a",
    "s_a",
    "apply_elastic",
    "apply_viscosity",
    "validate_material",
    "ValidationReport",
    "CheckResult",
]

HEAT_LAWS = ("quadratic", "linear")


# ---------------------------------------------------------------------------
# material record


@dataclass(frozen=True)
class MaterialModel:
    """Immutable bundle of every coefficient the model needs.

    Elasticity and viscosity are isotropic and stored as Lame-type pairs
    ``(lam, mu)`` acting on symmetric strains via
    ``lam * tr(eps) I + 2 mu eps``.  In one dimension that collapses to a
    scalar modulus E = lam + 2 mu.  The transformation strain and thermal
    expansion default to isotropic tensors ``eps_tr * I`` and
    ``alpha_th * I`` but accept full symmetric matrices, which the record
    keeps as tuples of rows so that it compares and hashes.
    """

    dim: int = 1
    lame: tuple[float, float] = (0.0, 0.5)      # elastic moduli, E=1 in 1D
    visc: tuple[float, float] = (0.0, 0.5)      # strain-rate viscosity D
    rho: float = 1.0                            # mass density
    alpha: float = 1.0                          # phase viscosity
    grad_coeff: float = 0.01                    # lambda, phase-gradient energy
    coupling_k: float = 10.0                    # k, chemo-phase spring
    a1: float = 0.2                             # swelling curve amplitude
    phi1_kappa: float = 5.0                     # curvature of phi1_hat(chi)
    double_well: float = 0.0                    # d0, optional phase add-on
    threshold_r: float = 0.05                   # activation threshold of zeta
    m_lo: float = 0.0
    m_hi: float = 1.0
    eps_tr: float | tuple = 0.1                 # transformation strain
    alpha_th: float | tuple = 0.1               # thermal expansion
    heat_law: str = "quadratic"
    c0: float = 2.0                             # heat capacity coefficient
    c0_m_slope: float = 0.0                     # optional m-dependence of c0
    K0: float = 1.0                             # heat conduction coefficient
    M0: float = 1.0                             # hydrogen mobility

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MaterialError(f"dim must be 1 or 2, got {self.dim}")
        if self.heat_law not in HEAT_LAWS:
            raise MaterialError(
                f"heat_law must be one of {HEAT_LAWS}, got {self.heat_law!r}")
        if not self.m_lo < self.m_hi:
            raise MaterialError("phase box requires m_lo < m_hi")
        for name in ("eps_tr", "alpha_th"):
            value = getattr(self, name)
            if np.ndim(value) > 0:
                object.__setattr__(self, name, _nested_tuple(value))

    # -- derived tensors, cached on first use --------------------------------

    @cached_property
    def eps_tr_mat(self) -> np.ndarray:
        return _as_sym_matrix(self.eps_tr, self.dim, "eps_tr")

    @cached_property
    def alpha_th_mat(self) -> np.ndarray:
        return _as_sym_matrix(self.alpha_th, self.dim, "alpha_th")

    @cached_property
    def CA(self) -> np.ndarray:
        """C alpha_th, the stress response to a unit temperature."""
        return apply_elastic(self, self.alpha_th_mat)

    @cached_property
    def CA_eps_tr(self) -> float:
        """C alpha_th : eps_tr, coefficient of the adiabatic microforce."""
        return float(np.tensordot(self.CA, self.eps_tr_mat, axes=2))

    @cached_property
    def CA_alpha(self) -> float:
        return float(np.tensordot(self.CA, self.alpha_th_mat, axes=2))

    @cached_property
    def eps_tr_C_eps_tr(self) -> float:
        """eps_tr : C eps_tr, curvature of phi2 in m."""
        return float(np.tensordot(
            apply_elastic(self, self.eps_tr_mat), self.eps_tr_mat, axes=2))

    @property
    def E(self) -> float:
        """Scalar elastic modulus, meaningful in 1D only."""
        lam, mu = self.lame
        return lam + 2.0 * mu

    def c0_of_m(self, m):
        return self.c0 * (1.0 + self.c0_m_slope * np.asarray(m, float))


def desk_default_material(dim: int = 1, **overrides) -> MaterialModel:
    """Desk-scale nondimensional default parameter set."""
    base = dict(dim=dim)
    if dim == 2:
        base["lame"] = (0.5, 0.25)
        base["visc"] = (0.5, 0.25)
    base.update(overrides)
    return MaterialModel(**base)


def _nested_tuple(value):
    """An array-like as nested tuples of floats, hashable and comparable."""
    arr = np.asarray(value, float)
    return float(arr) if arr.ndim == 0 else tuple(map(_nested_tuple, arr))


def _as_sym_matrix(value, dim: int, name: str) -> np.ndarray:
    if np.ndim(value) == 0:
        mat = float(value) * np.eye(dim)
    else:
        mat = np.array(value, dtype=float)
        if mat.shape != (dim, dim):
            raise MaterialError(f"{name} must be scalar or ({dim},{dim})")
        if not np.allclose(mat, mat.T):
            raise MaterialError(f"{name} must be symmetric")
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# elasticity


def apply_elastic(mat: MaterialModel, eps: np.ndarray) -> np.ndarray:
    """Isotropic elastic response C eps for strains of shape (..., d, d)."""
    lam, mu = mat.lame
    return _iso_apply(lam, mu, eps, mat.dim)


def apply_viscosity(mat: MaterialModel, rate: np.ndarray) -> np.ndarray:
    lam, mu = mat.visc
    return _iso_apply(lam, mu, rate, mat.dim)


def _iso_apply(lam: float, mu: float, eps: np.ndarray, dim: int) -> np.ndarray:
    eps = np.asarray(eps, float)
    tr = np.trace(eps, axis1=-2, axis2=-1)
    eye = np.eye(dim)
    return lam * tr[..., None, None] * eye + 2.0 * mu * eps


# ---------------------------------------------------------------------------
# heat law and enthalpy transform


def omega_of_theta(mat: MaterialModel, m, theta):
    """Enthalpy w = omega(m, theta) = phi3 - theta d_theta phi3."""
    theta = np.asarray(theta, float)
    if np.any(theta < 0):
        raise ValueError("omega_of_theta requires theta >= 0")
    c = mat.c0_of_m(m)
    if mat.heat_law == "quadratic":
        return 0.5 * c * theta**2
    return c * theta


def theta_of_w(mat: MaterialModel, m, w):
    """Temperature from enthalpy, the monotone inverse of omega_of_theta.

    Closed forms cover both built-in laws; ``invert_omega`` provides the
    safeguarded generic inversion and agrees to 1e-12 relative.
    """
    w = np.asarray(w, float)
    if np.any(w < 0):
        raise ValueError("theta_of_w requires w >= 0")
    c = mat.c0_of_m(m)
    if mat.heat_law == "quadratic":
        return np.sqrt(2.0 * w / c)
    return w / c


def dtheta_dm(mat: MaterialModel, m, w):
    """Partial derivative of theta(m, w) in m; zero unless c0 depends on m."""
    if mat.c0_m_slope == 0.0:
        return np.zeros(np.broadcast(np.asarray(m), np.asarray(w)).shape)
    theta = theta_of_w(mat, m, w)
    c = mat.c0_of_m(m)
    dc = mat.c0 * mat.c0_m_slope
    if mat.heat_law == "quadratic":
        return -0.5 * theta * dc / c
    return -theta * dc / c


def invert_omega(mat: MaterialModel, m, w, tol: float = 1e-12,
                 max_iter: int = 200):
    """Generic monotone inversion of omega(m, .) by safeguarded Newton.

    Falls back to bisection whenever a Newton step leaves the bracket.
    Used to cross-check the closed forms; tolerance is relative.
    """
    m_arr, w_arr = np.broadcast_arrays(np.asarray(m, float), np.asarray(w, float))
    out = np.empty(w_arr.shape)
    it = np.nditer(w_arr, flags=["multi_index"])
    for wv in it:
        idx = it.multi_index
        out[idx] = _invert_scalar(mat, float(m_arr[idx]), float(wv), tol, max_iter)
    return out if out.shape else float(out)


def _invert_scalar(mat, m, w, tol, max_iter):
    if w < 0:
        raise ValueError("invert_omega requires w >= 0")
    if w == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while omega_of_theta(mat, m, hi) < w:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("omega does not reach the requested enthalpy")
    theta = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f = omega_of_theta(mat, m, theta) - w
        if f == 0.0:
            return theta
        if f > 0:
            hi = theta
        else:
            lo = theta
        c = mat.c0_of_m(m)
        slope = c * theta if mat.heat_law == "quadratic" else c
        newton = slope > 0
        if newton:
            nxt = theta - f / slope
            if not (lo <= nxt <= hi):
                nxt = 0.5 * (lo + hi)
                newton = False
        else:
            nxt = 0.5 * (lo + hi)
        if nxt == theta:
            return theta
        # a small bisection step certifies nothing about the error, so
        # only a small Newton step counts as converged
        if newton and abs(nxt - theta) <= tol * max(1.0, abs(theta)):
            return nxt
        theta = nxt
    return theta


# ---------------------------------------------------------------------------
# chemical energy phi1 and its derivatives


def swelling_curve(mat: MaterialModel, chi, order: int = 0):
    """Equilibrium phase fraction a(chi) = a1 chi^2 / (1 + chi^2).

    ``order`` selects the derivative (0, 1 or 2).  The curve is bounded,
    has a'(0) = 0 and bounded a', which is what the mixed-curvature
    assumptions ask of the chemo-phase coupling.
    """
    chi = np.asarray(chi, float)
    chi2 = chi**2
    return _swelling(mat, chi, chi2, 1.0 + chi2, order)


def _swelling(mat: MaterialModel, chi, chi2, q, order: int):
    """``swelling_curve`` from chi2 = chi**2 (not read by order 1) and
    q = 1 + chi2."""
    if order == 0:
        return mat.a1 * chi2 / q
    if order == 1:
        return 2.0 * mat.a1 * chi / q**2
    if order == 2:
        return 2.0 * mat.a1 * (1.0 - 3.0 * chi2) / q**3
    raise ValueError("order must be 0, 1 or 2")


def phi1(mat: MaterialModel, m, chi, a=None):
    """Chemical part of the stored energy.  ``a`` is the swelling curve
    at ``chi`` when the caller has it already."""
    m = np.asarray(m, float)
    chi = np.asarray(chi, float)
    if a is None:
        a = swelling_curve(mat, chi)
    val = 0.5 * mat.coupling_k * (m - a) ** 2 + 0.5 * mat.phi1_kappa * chi**2
    if mat.double_well != 0.0:
        val = val + mat.double_well * m**2 * (1.0 - m) ** 2
    return val


def chemical_potential(mat: MaterialModel, m, chi):
    """mu = d phi1 / d chi = -k (m - a(chi)) a'(chi) + kappa chi."""
    m = np.asarray(m, float)
    chi = np.asarray(chi, float)
    a = swelling_curve(mat, chi)
    da = swelling_curve(mat, chi, 1)
    return -mat.coupling_k * (m - a) * da + mat.phi1_kappa * chi


def dphi1_dm(mat: MaterialModel, m, chi, a=None):
    """d phi1 / d m; reduces to k (m - a(chi)) without the double well.
    ``a`` is the swelling curve at ``chi`` when the caller has it
    already."""
    m = np.asarray(m, float)
    if a is None:
        a = swelling_curve(mat, chi)
    val = mat.coupling_k * (m - a)
    if mat.double_well != 0.0:
        val = val + 2.0 * mat.double_well * m * (1.0 - m) * (1.0 - 2.0 * m)
    return val


def d2phi1_dchichi(mat: MaterialModel, m, chi):
    return chi_curvatures(mat, m, chi)[0]


def d2phi1_dmchi(mat: MaterialModel, m, chi):
    del m  # the mixed curvature depends on chi only
    return -mat.coupling_k * swelling_curve(mat, chi, 1)


def chi_curvatures(mat: MaterialModel, m, chi):
    """d2phi1/dchi2 and d2phi1/dm dchi at (m, chi), from one evaluation
    of each order of the swelling curve on one chi**2 and 1 + chi**2."""
    chi = np.asarray(chi, float)
    chi2 = chi**2
    q = 1.0 + chi2
    a = _swelling(mat, chi, chi2, q, 0)
    dda = _swelling(mat, chi, chi2, q, 2)
    # each dropped once no order left reads it: no more arrays held at
    # once than by three swelling_curve calls
    del chi2
    da = _swelling(mat, chi, None, q, 1)
    del q
    return (mat.coupling_k * ((a - np.asarray(m, float)) * dda + da**2)
            + mat.phi1_kappa, -mat.coupling_k * da)


def d2phi1_dmm(mat: MaterialModel, m, chi):
    del chi
    m = np.asarray(m, float)
    val = mat.coupling_k * np.ones_like(m)
    if mat.double_well != 0.0:
        val = val + mat.double_well * (12.0 * m**2 - 12.0 * m + 2.0)
    return val


def inf_d2phi1_dmm(mat: MaterialModel) -> float:
    """Exact infimum of the phase curvature over the admissible box."""
    k, d0 = mat.coupling_k, mat.double_well
    if d0 == 0.0:
        return k
    # quadratic 12 m^2 - 12 m + 2 has its vertex at m = 1/2
    cands = [mat.m_lo, mat.m_hi]
    if mat.m_lo <= 0.5 <= mat.m_hi:
        cands.append(0.5)
    return min(k + d0 * (12.0 * m * m - 12.0 * m + 2.0) for m in cands)


# ---------------------------------------------------------------------------
# thermal energy phi3 and the adiabatic terms


def _phi3_hat(mat: MaterialModel, m, theta):
    theta = np.asarray(theta, float)
    c = mat.c0_of_m(m)
    if mat.heat_law == "quadratic":
        return -0.5 * (c + mat.CA_alpha) * theta**2
    log_part = np.where(theta > 0, theta * np.log(np.where(theta > 0, theta, 1.0)), 0.0)
    return -c * (log_part - theta) - 0.5 * mat.CA_alpha * theta**2


def phi3(mat: MaterialModel, m, theta):
    """Thermal part of the stored energy; phi3_hat is tuned so that the
    enthalpy transform reproduces the selected heat law exactly."""
    m = np.asarray(m, float)
    theta = np.asarray(theta, float)
    return 0.5 * theta**2 * mat.CA_alpha + theta * mat.CA_eps_tr * m \
        + _phi3_hat(mat, m, theta)


def dphi3_dtheta(mat: MaterialModel, m, theta):
    m = np.asarray(m, float)
    theta = np.asarray(theta, float)
    c = mat.c0_of_m(m)
    if mat.heat_law == "quadratic":
        hat = -(c + mat.CA_alpha) * theta
    else:
        hat = -c * np.where(theta > 0, np.log(np.where(theta > 0, theta, 1.0)), 0.0) \
            - mat.CA_alpha * theta
    return theta * mat.CA_alpha + mat.CA_eps_tr * m + hat


def sigma_a(mat: MaterialModel, m, w):
    """Adiabatic stress sigma_a(m, w) = -theta(m, w) C alpha_th.

    Extended by zero for w <= 0.  Returns a scalar in 1D and a matrix of
    shape (..., d, d) otherwise, broadcasting over m and w.
    """
    theta = theta_of_w(mat, m, np.maximum(np.asarray(w, float), 0.0))
    if mat.dim == 1:
        return -theta * mat.CA[0, 0]
    return -np.asarray(theta)[..., None, None] * mat.CA


def sigma_a_tensor(mat: MaterialModel, m, w) -> np.ndarray:
    """sigma_a as a (..., d, d) matrix in every dimension, the form the
    element loops contract with strains."""
    sig = np.asarray(sigma_a(mat, m, w))
    return sig[..., None, None] if mat.dim == 1 else sig


def s_a(mat: MaterialModel, m, w):
    """Adiabatic microforce s_a(m, w) = d_m phi3 (m, theta(m, w)).

    For the built-in laws with constant c0 this is theta * (C alpha : eps_tr);
    an m-dependent c0 adds the derivative of phi3_hat.  Vanishes at w = 0.
    """
    theta = theta_of_w(mat, m, np.maximum(np.asarray(w, float), 0.0))
    val = theta * mat.CA_eps_tr
    if mat.c0_m_slope != 0.0:
        dc = mat.c0 * mat.c0_m_slope
        if mat.heat_law == "quadratic":
            val = val - 0.5 * dc * theta**2
        else:
            log_part = np.where(theta > 0,
                                theta * np.log(np.where(theta > 0, theta, 1.0)),
                                0.0)
            val = val - dc * (log_part - theta)
    return val


# ---------------------------------------------------------------------------
# pointwise stress


def stress(mat: MaterialModel, eps, m, w):
    """Total stress C(eps - eps_tr m) + sigma_a(m, w), without viscosity."""
    if mat.dim == 1:
        eps = np.asarray(eps, float)
        m = np.asarray(m, float)
        return mat.E * (eps - float(mat.eps_tr_mat[0, 0]) * m) + sigma_a(mat, m, w)
    eps = np.asarray(eps, float)
    m = np.asarray(m, float)
    el = apply_elastic(mat, eps - m[..., None, None] * mat.eps_tr_mat)
    return el + sigma_a(mat, m, w)


# ---------------------------------------------------------------------------
# assumption validator


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str          # "pass" | "warn" | "fail"
    margin: float
    detail: str = ""

    def __str__(self):
        return f"[{self.status:4s}] {self.name}: margin={self.margin:.6g} {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def warnings(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "warn")

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def raise_for_failure(self):
        if not self.ok:
            worst = self.failures[0]
            raise MaterialError(
                f"material fails {worst.name}: margin {worst.margin:.6g} {worst.detail}")

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _iso_eig_min(pair: tuple[float, float], dim: int) -> float:
    """Smallest eigenvalue of an isotropic stiffness on symmetric matrices."""
    lam, mu = pair
    if dim == 1:
        return lam + 2.0 * mu
    # eigenvalues: lam*d + 2 mu on the spherical part, 2 mu on deviators
    return min(lam * dim + 2.0 * mu, 2.0 * mu)


def _growth_check(name, values, w_grid, quantity):
    """Sampled square-root growth bound |q| <= C sqrt(1 + w).

    Passes when the ratio stabilises along the sweep; a ratio still rising
    at the top decades means the bound fails asymptotically and the check
    only warns, since it voids estimates rather than the scheme itself.
    """
    ratio = np.abs(values) / np.sqrt(1.0 + w_grid)
    peak = float(ratio.max())
    tail = ratio[w_grid >= w_grid[-1] / 100.0]
    rising = tail[-1] > 1.05 * tail[0] and tail[-1] >= 0.95 * peak and peak > 0
    status = "warn" if rising else "pass"
    detail = f"sup |{quantity}|/sqrt(1+w) = {peak:.4g}"
    if rising:
        detail += ", still growing at w = 1e6"
    return CheckResult(name, status, peak, detail)


# the (m, chi) sample grid of validate_material: _CHECK_GRID points per
# axis, chi from 0 to _CHECK_CHI_MAX
_CHECK_CHI_MAX = 3.0
_CHECK_GRID = 100


def validate_material(mat: MaterialModel) -> ValidationReport:
    """Sample the standing assumptions on a (m, chi) grid and a w sweep.

    Hard failures (non-positive stiffness, loss of convexity of phi1 in
    chi, negative activation threshold, non-positive heat capacity) make
    ``ok`` false; growth-bound violations of the adiabatic terms only warn.
    """
    checks = []
    m_grid = np.linspace(mat.m_lo, mat.m_hi, _CHECK_GRID)
    chi_grid = np.linspace(0.0, _CHECK_CHI_MAX, _CHECK_GRID)
    MM, CC = np.meshgrid(m_grid, chi_grid, indexing="ij")

    # (3.1a) uniform positive definiteness of C, D, transport and phi1 in chi
    d2cc = d2phi1_dchichi(mat, MM, CC)
    i_min = np.unravel_index(np.argmin(d2cc), d2cc.shape)
    margin_a = min(
        _iso_eig_min(mat.lame, mat.dim),
        _iso_eig_min(mat.visc, mat.dim),
        mat.K0,
        mat.M0,
        float(d2cc[i_min]),
    )
    detail_a = ""
    if margin_a == float(d2cc[i_min]):
        detail_a = f"min d2phi1/dchi2 at (m={MM[i_min]:.3g}, chi={CC[i_min]:.3g})"
    checks.append(CheckResult(
        "(3.1a) uniform positive definiteness", "pass" if margin_a > 1e-12 else "fail",
        float(margin_a), detail_a))

    # (3.1d) phase curvature bounded below
    inf_mm = inf_d2phi1_dmm(mat)
    checks.append(CheckResult(
        "(3.1d) phase curvature bounded below", "pass", float(inf_mm),
        f"inf d2phi1/dm2 = {inf_mm:.4g}"))

    # (3.1e) mixed curvature bounded
    mixed = np.abs(d2phi1_dmchi(mat, MM, CC))
    checks.append(CheckResult(
        "(3.1e) mixed curvature bounded", "pass", float(mixed.max()),
        f"sup |d2phi1/dm dchi| = {mixed.max():.4g}"))

    # (3.1f) mixed curvature vanishes at zero concentration
    at_zero = float(np.max(np.abs(
        d2phi1_dmchi(mat, m_grid, np.zeros_like(m_grid)))))
    checks.append(CheckResult(
        "(3.1f) mixed curvature vanishes at chi = 0",
        "pass" if at_zero <= 1e-12 else "fail", at_zero, ""))

    # growth sweeps of the adiabatic terms and cross conduction
    w_grid = np.concatenate(([0.0], np.logspace(-2, 6, 160)))
    m_mid = 0.5 * (mat.m_lo + mat.m_hi)
    sig = sigma_a(mat, m_mid, w_grid)
    if mat.dim > 1:
        sig = np.linalg.norm(sig, axis=(-2, -1))
    checks.append(_growth_check(
        "(3.1l) adiabatic stress growth", sig, w_grid, "sigma_a"))
    checks.append(_growth_check(
        "(3.1m) adiabatic microforce growth", s_a(mat, m_mid, w_grid),
        w_grid, "s_a"))
    ell = mat.K0 * dtheta_dm(mat, m_mid, w_grid)
    checks.append(_growth_check(
        "(3.1n) cross-conduction growth", ell, w_grid, "L"))

    # dissipation potential zeta(v) = r |v| convex and 1-homogeneous
    checks.append(CheckResult(
        "zeta convex 1-homogeneous",
        "pass" if mat.threshold_r >= 0 else "fail", float(mat.threshold_r),
        "requires threshold r >= 0"))

    # heat capacity d omega / d theta positive on the admissible box
    c_min = float(np.min(mat.c0_of_m(m_grid)))
    checks.append(CheckResult(
        "heat capacity positive", "pass" if c_min > 0 else "fail", c_min,
        "c0(m) over the phase box"))

    # remaining scalar positivity used throughout the scheme
    pos = min(mat.rho, mat.alpha, mat.grad_coeff, mat.phi1_kappa)
    checks.append(CheckResult(
        "kinetic and gradient coefficients positive",
        "pass" if pos > 0 else "fail", float(pos),
        "rho, alpha, lambda, phi1_kappa"))
    if mat.coupling_k < 0:
        checks.append(CheckResult(
            "coupling k non-negative", "fail", float(mat.coupling_k), ""))

    return ValidationReport(checks=tuple(checks))
