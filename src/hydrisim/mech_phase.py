"""Joint displacement/phase increment: one step of the staggered scheme.

Each step minimizes a strictly convex incremental functional over (u, m):
elastic energy of eps(u) - eps_tr*m, the chemical energy phi1 at the frozen
previous concentration, the phase-gradient term, inertia and viscosity
differences, the rate-independent activation cost r|m - m_prev| and the box
constraint on m, plus the adiabatic couplings sigma_a, s_a frozen at the
previous phase/enthalpy pair.  The solver alternates an SPD displacement
solve (``grid.SPDSolver`` under its one rule: on a 2D grid CG
preconditioned by the block-diagonal tensor model of
``_displacement_models``; on any other mesh, every segment mesh among
them, a banded Cholesky factor computed once) with an accelerated
proximal-gradient pass on m (FISTA with restart) in a diagonal metric:
each node steps by its own Gershgorin row sum of the phase Hessian, so
the nonsmooth part stays an exact nodal prox.  It stops on the joint
first-order residual measured in the lumped dual norm.
The normal-cone multiplier xi is recovered from the converged m-equation.

The displacement block keeps one matrix, the system matrix
A_u = rho/tau^2 M + A_visc/tau + A_el, assembled as one elastic form of
the combined Lame pair (lam + lam_v/tau, mu + mu_v/tau) with the inertia
added on its diagonal.  The elastic and viscous energies of the objective
and the viscous load of the right-hand side come from element strains
with the quadrature of the energy ledger, so the separate elastic and
viscous matrices are never built.

``StateTerms`` holds the arrays of one state that more than one stage
reads, each evaluated on first read.  A step reads the terms of its
previous state from the problem and returns the strain of its new state
with the solution; the driver seeds the new state's terms with it, and
the enthalpy solve, the energy ledger and the next step read them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .constitutive import (
    MaterialModel,
    apply_elastic,
    apply_viscosity,
    dphi1_dm,
    inf_d2phi1_dmm,
    phi1,
    s_a,
    sigma_a_tensor,
    swelling_curve,
)
from .errors import NEG_TOL, ConfigError, InvariantViolation, StepFailure
from .grid import (
    Mesh,
    SPDSolver,
    coupling_force_matrix,
    elastic_stiffness,
    elem_mean,
    lumped_mass,
    mean_coupling_matrix,
    stiffness,
    strain,
    strain_adjoint,
    strain_pairing,
    tensor_grid_inverse,
    vector_grad_op,
    vector_lumped_mass,
)
from .state import State

# Iteration budget of one proximal-gradient pass on the phase block
FISTA_MAX = 5000


def tau_max(mat: MaterialModel, horizon: float) -> float:
    """Largest step size for which the incremental functional stays convex.

    The bound kicks in only when the phase energy loses convexity in m
    (double-well add-on, curv < 0).  Then both the joint functional (4.6),
    tau <= alpha^2/curv^2, and the nodal prox, alpha/tau + curv >= 0, must
    hold, so the threshold is min(horizon, alpha^2/curv^2, alpha/|curv|);
    otherwise any step up to the horizon is fine.
    """
    curv = inf_d2phi1_dmm(mat)
    if curv < 0.0:
        return min(horizon, mat.alpha ** 2 / curv ** 2, mat.alpha / -curv)
    return horizon


def check_step_size(mat: MaterialModel, tau: float,
                    horizon: float = math.inf):
    """Raise ConfigError when ``tau`` exceeds ``tau_max(mat, horizon)`` or
    leaves tau^2 or the inertia weight rho/tau^2 outside the floats."""
    if not (0.0 < tau * tau < math.inf and math.isfinite(mat.rho / tau ** 2)):
        raise ConfigError("tau = %g leaves rho/tau^2 out of range" % tau)
    bound = tau_max(mat, horizon)
    if tau > bound * (1.0 + 1e-12):
        raise ConfigError(
            "tau = %g exceeds the convexity threshold (4.6) tau_max = %g "
            "for this material" % (tau, bound))


def phase_nodal_prox(a_quad, b, p, kappa, lo, hi):
    """Exact minimizer of (a_quad/2)(v-b)^2 + kappa|v-p| over [lo, hi].

    Shrink toward b by kappa/a_quad, stick at p inside the threshold band
    (band edges resolve toward sticking), then clip to the box.  All
    arguments broadcast; requires a_quad > 0, p in [lo, hi].
    """
    d = np.asarray(b, float) - p
    shift = np.asarray(kappa, float) / a_quad
    v = p + np.sign(d) * np.maximum(np.abs(d) - shift, 0.0)
    return np.clip(v, lo, hi)


@dataclass
class MechOperators:
    """Matrices reused across steps of one run (fixed mesh, material, tau).

    ``A_u`` is the one displacement matrix, the system matrix
    rho/tau^2 M + A_visc/tau + A_el of the displacement solve; the elastic
    and viscous energies are taken from element strains instead.
    """

    Mlump: np.ndarray
    Mvec: np.ndarray
    A_m: sp.csr_matrix  # phase-gradient stiffness + transformation coupling
    B: sp.csr_matrix
    B_t: sp.csc_matrix  # B.T, a view on B's arrays built once
    A_u: sp.csr_matrix
    u_solver: SPDSolver
    lipschitz: np.ndarray  # per-node step metric D, majorizes the m-Hessian


def build_operators(mesh: Mesh, mat: MaterialModel, tau: float) -> MechOperators:
    Mlump = lumped_mass(mesh)
    Mvec = vector_lumped_mass(mesh)
    K = stiffness(mesh, mat.grad_coeff)
    A_m = _on_pattern(K + mean_coupling_matrix(mesh, mat.eps_tr_C_eps_tr), K)
    # one kron(grad_op, I_dim) for both displacement forms, never kept
    # past set-up; A_visc/tau + A_el is the elastic form of the summed
    # Lame pairs, and the inertia goes onto its stored diagonal in place
    G = vector_grad_op(mesh)
    (lam, mu), (lam_v, mu_v) = mat.lame, mat.visc
    A_u = elastic_stiffness(mesh, (lam + lam_v / tau, mu + mu_v / tau), G)
    B = coupling_force_matrix(mesh, mat.C_eps_tr, G)
    del G
    A_u.setdiag(A_u.diagonal() + mat.rho / tau ** 2 * Mvec)
    # Gershgorin row sums D of the phase-block Hessian H leave D - H diagonally
    # dominant; the curvature is bounded over the range [-1, 2] the
    # accelerated steps can visit, where the quartic well adds <= 26*d0.
    curv_max = mat.coupling_k + 26.0 * mat.double_well
    H = A_m + sp.diags(Mlump * (mat.alpha / tau + curv_max))
    lipschitz = np.asarray(abs(H).sum(axis=1)).ravel()
    u_solver = SPDSolver(A_u, "displacement solve", tensor_grid_inverse(
        mesh, *_displacement_models(mat, tau)))
    return MechOperators(Mlump, Mvec, A_m, B, B.T, A_u, u_solver, lipschitz)


def _displacement_models(mat: MaterialModel, tau: float):
    """The (kx, ky, c) of u_x and of u_y in the block-diagonal tensor model
    of A_u = rho/tau^2 M + A_visc/tau + A_el on a 2D grid: each component
    keeps its own normal stiffness, (lam + 2 mu) along its axis and mu
    across it (viscous pair likewise, over tau), and the model drops the
    (lam + mu) cross-derivative coupling of u_x and u_y."""
    (lam, mu), (lam_v, mu_v) = mat.lame, mat.visc
    k_along = (lam + 2.0 * mu) + (lam_v + 2.0 * mu_v) / tau
    k_across = mu + mu_v / tau
    c = mat.rho / tau ** 2
    return (k_along, k_across, c), (k_across, k_along, c)


def _on_pattern(A: sp.spmatrix, P: sp.csr_matrix) -> sp.csr_matrix:
    """``A`` in CSR with its arrays copied to size, sharing the index
    arrays of ``P`` when the patterns match.  A CSR sum leaves its result
    in buffers sized for nnz(A) + nnz(B), twice the matrix here."""
    A = A.tocsr()
    if not (np.array_equal(A.indptr, P.indptr)
            and np.array_equal(A.indices, P.indices)):
        return A.copy()
    return sp.csr_matrix((A.data.copy(), P.indices, P.indptr),
                         shape=A.shape)


class StateTerms:
    """The arrays of one state that the step leaving it, the enthalpy
    solve and the energy ledger share: the element strain eps(u), the
    element means of m and w, the elastic strain eps(u) - mean(m) eps_tr,
    the nodal a(chi) and phi1(m, chi), the element sigma_a at the
    midpoint m and w, its nodal force and the nodal s_a(m, w).

    Each is evaluated on its first read and kept, so every reader gets
    the same bits from one evaluation; ``strain`` is ``strain(mesh,
    state.u)`` when the caller holds it.  The state's arrays must not
    change once a term is read.
    """

    def __init__(self, mesh: Mesh, mat: MaterialModel, state: State,
                 strain: np.ndarray | None = None):
        self.mesh, self.mat, self.state = mesh, mat, state
        if strain is not None:
            self.strain = strain

    @cached_property
    def strain(self) -> np.ndarray:
        return strain(self.mesh, self.state.u)

    @cached_property
    def m_mean(self) -> np.ndarray:
        return elem_mean(self.mesh, self.state.m)

    @cached_property
    def w_mean(self) -> np.ndarray:
        return elem_mean(self.mesh, self.state.w)

    @cached_property
    def elastic_strain(self) -> np.ndarray:
        return self.strain - self.m_mean[:, None, None] * self.mat.eps_tr_mat

    @cached_property
    def swelling(self) -> np.ndarray:
        return swelling_curve(self.mat, self.state.chi)

    @cached_property
    def phi1(self) -> np.ndarray:
        return phi1(self.mat, self.state.m, self.state.chi, a=self.swelling)

    @cached_property
    def sigma_a(self) -> np.ndarray:
        return sigma_a_tensor(self.mat, self.m_mean, self.w_mean)

    @cached_property
    def sigma_a_force(self) -> np.ndarray:
        return strain_adjoint(self.mesh, self.sigma_a)

    @cached_property
    def s_a(self) -> np.ndarray:
        return s_a(self.mat, self.state.m, self.state.w)


@dataclass(frozen=True)
class MechPhaseProblem:
    """Frozen data of one displacement/phase increment.

    ``prev`` holds the previous state, its mesh and material and the
    arrays of it that the step reads: the displacement one step before
    it (``prev.state.u_prev``) gives the inertia, the concentration gives
    a(chi_prev) for phi1, and m, w give the adiabatic couplings frozen
    over the step.  ``ops`` are the run's matrices,
    ``build_operators(prev.mesh, prev.mat, tau)``.  ``f`` and ``f_s`` are
    already-assembled nodal load vectors (body and surface); None means
    zero.  ``opt_tol`` bounds the first-order residual relative to 1 +
    the dual norm of the step forcing, which coincides with an absolute
    bound for steps starting from rest.
    """

    tau: float
    prev: StateTerms
    ops: MechOperators = field(repr=False)
    f: np.ndarray | None = None
    f_s: np.ndarray | None = None
    cg_tol: float = 1e-12
    opt_tol: float = 1e-10
    opt_max: int = 200


@dataclass(frozen=True)
class MechPhaseSolution:
    u: np.ndarray
    m: np.ndarray
    xi: np.ndarray
    residual: float
    tolerance: float  # forcing-scaled bound the residual was tested against
    outer_iterations: int
    prox_iterations: int
    cg_iterations: int
    objective: float
    strain: np.ndarray  # element strain of u, seeds the next StateTerms


def _m_smooth_grad(pr, m, Am, Bu):
    """Gradient of the smooth part of the m-functional, given Am = A_m @ m."""
    mat, prev = pr.prev.mat, pr.prev
    return Am - Bu + pr.ops.Mlump * (
        dphi1_dm(mat, m, prev.state.chi, a=prev.swelling)
        + (mat.alpha / pr.tau) * (m - prev.state.m) + prev.s_a)


def _m_residual(g, m, m_prev, Mlump, r, lo, hi):
    """Nodal distance of -g to the activation+normal-cone subdifferential."""
    delta = m - m_prev
    lo_band = np.where(delta > 0, r, -r)
    hi_band = np.where(delta < 0, -r, r)
    lo_tot = np.where(m <= lo, -np.inf, lo_band)
    hi_tot = np.where(m >= hi, np.inf, hi_band)
    target = -g / Mlump
    return Mlump * np.maximum(0.0, np.maximum(lo_tot - target,
                                              target - hi_tot))


def _solve_m_block(pr, u, m_start, tol, max_iter):
    """FISTA with restart in the metric D = ops.lipschitz and one A_m product
    per iteration; returns m, g(m), its nodal residual and the count."""
    mat, ops, m_prev = pr.prev.mat, pr.ops, pr.prev.state.m
    Bu = ops.B_t @ u
    D = ops.lipschitz
    kappa = ops.Mlump * mat.threshold_r
    lo, hi = mat.m_lo, mat.m_hi
    y = m = np.clip(m_start, lo, hi)
    Am = ops.A_m @ m
    g = g_y = _m_smooth_grad(pr, m, Am, Bu)
    t_acc = 1.0
    for it in range(1, max_iter + 1):
        m_new = phase_nodal_prox(D, y - g_y / D, m_prev, kappa, lo, hi)
        if (y - m_new) @ (D * (m_new - m)) > 0.0:
            # momentum points uphill: restart from the last iterate
            t_acc = 1.0
            m_new = phase_nodal_prox(D, m - g / D, m_prev, kappa, lo, hi)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc ** 2))
        beta = (t_acc - 1.0) / t_next
        Am_new = ops.A_m @ m_new
        g_new = _m_smooth_grad(pr, m_new, Am_new, Bu)
        res = _m_residual(g_new, m_new, m_prev, ops.Mlump,
                          mat.threshold_r, lo, hi)
        if np.sqrt(np.sum(res ** 2 / ops.Mlump)) <= tol:
            return m_new, g_new, res, it
        y = m_new + beta * (m_new - m)
        # A_m is linear, so A_m @ y needs no product of its own
        g_y = _m_smooth_grad(pr, y, (1.0 + beta) * Am_new - beta * Am, Bu)
        m, Am, g, t_acc = m_new, Am_new, g_new, t_next
    return m, g, res, max_iter


def _u_rhs_base(pr):
    mat, prev = pr.prev.mat, pr.prev
    b = (mat.rho / pr.tau ** 2) * pr.ops.Mvec * (2.0 * prev.state.u
                                                - prev.state.u_prev)
    # A_visc u_prev / tau, the viscous stress of eps(u_prev) as a force
    b += strain_adjoint(prev.mesh,
                        apply_viscosity(mat, prev.strain)) / pr.tau
    b -= prev.sigma_a_force
    for load in (pr.f, pr.f_s):
        if load is not None:
            b = b + load
    return b


def incremental_objective(pr: MechPhaseProblem, u: np.ndarray,
                          m: np.ndarray, eps: np.ndarray | None = None
                          ) -> float:
    """Value of the step functional; +inf outside the phase box.

    ``eps`` is ``strain(pr.prev.mesh, u)`` when the caller holds it.  The
    elastic and viscous terms are element quadratures of eps(u) and of
    eps(u) - eps(u_prev), as in the energy ledger.  At the very arrays u
    and m of ``pr.prev``, the viscous, alpha and activation terms are
    exactly 0 and skipped, and phi1 is read from ``pr.prev``.
    """
    prev, ops = pr.prev, pr.ops
    mesh, mat = prev.mesh, prev.mat
    if np.any(m < mat.m_lo) or np.any(m > mat.m_hi):
        return np.inf
    at_prev = u is prev.state.u and m is prev.state.m
    if at_prev or eps is None:
        eps = prev.strain if at_prev else strain(mesh, u)
    acc = u - 2.0 * prev.state.u + prev.state.u_prev
    val = 0.5 * mat.rho / pr.tau ** 2 * np.sum(ops.Mvec * acc ** 2)
    if at_prev:
        nodal = prev.phi1 + prev.s_a * m
    else:
        deps = eps - prev.strain
        dm = m - prev.state.m
        val += 0.5 / pr.tau * strain_pairing(
            mesh, apply_viscosity(mat, deps), deps)
        nodal = (phi1(mat, m, prev.state.chi, a=prev.swelling)
                 + 0.5 * mat.alpha / pr.tau * dm ** 2
                 + mat.threshold_r * np.abs(dm) + prev.s_a * m)
    val += 0.5 * strain_pairing(mesh, apply_elastic(mat, eps), eps)
    val -= u @ (ops.B @ m)
    val += 0.5 * (m @ (ops.A_m @ m))
    val += np.sum(ops.Mlump * nodal)
    val += prev.sigma_a_force @ u
    for load in (pr.f, pr.f_s):
        if load is not None:
            val -= load @ u
    return float(val)


def _recover_xi(g, m, m_prev, Mlump, r, lo, hi):
    delta = m - m_prev
    if r > 0.0:
        slack_eta = np.clip(-g / (Mlump * r), -1.0, 1.0)
    else:
        slack_eta = np.zeros_like(g)
    eta = np.where(delta > 0, 1.0, np.where(delta < 0, -1.0, slack_eta))
    xi = -(g / Mlump + r * eta)
    xi[(m > lo) & (m < hi)] = 0.0
    return xi


def solve_mech_phase_step(pr: MechPhaseProblem) -> MechPhaseSolution:
    mat, st, ops = pr.prev.mat, pr.prev.state, pr.ops
    if np.min(st.chi) < -NEG_TOL:
        raise InvariantViolation("previous concentration has negative nodes")
    if np.min(st.w) < -NEG_TOL:
        raise InvariantViolation("previous enthalpy has negative nodes")
    check_step_size(mat, pr.tau)

    b_base = _u_rhs_base(pr)

    # stopping is relative to the forcing magnitude: the inertial part of
    # b_base scales like rho/tau^2, so an absolute test would demand more
    # accuracy than the inner solve can deliver in double precision
    scale = 1.0 + float(np.sqrt(np.sum(b_base ** 2 / ops.Mvec)))
    tol_eff = pr.opt_tol * scale

    u = st.u.copy()
    m = st.m.copy()
    cg_total = 0
    prox_total = 0
    residual = np.inf
    for outer in range(1, pr.opt_max + 1):
        b_u = b_base + ops.B @ m
        u, cg_it = ops.u_solver.solve(b_u, u, pr.cg_tol)
        cg_total += cg_it
        m, g, r_m, fista_it = _solve_m_block(pr, u, m, 0.5 * tol_eff,
                                             FISTA_MAX)
        prox_total += fista_it
        r_u = ops.A_u @ u - (b_base + ops.B @ m)
        residual = float(np.sqrt(np.sum(r_u ** 2 / ops.Mvec)
                                 + np.sum(r_m ** 2 / ops.Mlump)))
        if residual <= tol_eff:
            break
    else:
        raise StepFailure(
            f"displacement/phase alternation stalled: residual {residual:.3e}"
            f" > {tol_eff:.3e} after {pr.opt_max} sweeps "
            f"({cg_total} CG, {prox_total} prox iterations)")

    xi = _recover_xi(g, m, st.m, ops.Mlump, mat.threshold_r,
                     mat.m_lo, mat.m_hi)
    eps = strain(pr.prev.mesh, u)
    obj = incremental_objective(pr, u, m, eps)
    return MechPhaseSolution(u=u, m=m, xi=xi, residual=residual,
                             tolerance=tol_eff,
                             outer_iterations=outer, prox_iterations=prox_total,
                             cg_iterations=cg_total, objective=obj,
                             strain=eps)
