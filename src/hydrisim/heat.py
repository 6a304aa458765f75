"""Enthalpy step: a semilinear heat solve that preserves w >= 0.

The conductivity acts on the new enthalpy while all heat production from
the just-computed mechanics, phase and diffusion increments sits on the
right-hand side.  The quadratic production terms carry a 1/(1+tau|.|^2)
denominator that caps each of them at coefficient/tau, and the adiabatic
terms vanish identically for nonpositive enthalpy; together with the
lumped M-matrix system this keeps the new enthalpy nonnegative, which is
asserted.  The system matrix is a run constant, solved by
``grid.SPDSolver``: a banded Cholesky factor computed once per run when
the matrix is tridiagonal (every segment mesh), Jacobi-preconditioned CG
otherwise.  The adiabatic terms are implicit in w, handled by a plain
fixed-point loop; the returned breakdown of the right-hand side is the one
the final linear solve actually saw, so ledger identities built on it hold
to linear-solver precision rather than picking up the Hoelder-type
sensitivity of the adiabatic stress near w = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import (
    MaterialModel,
    apply_viscosity,
    dtheta_dm,
    s_a,
    sigma_a_tensor,
)
from .errors import InvariantViolation, StepFailure
from .grid import (
    Mesh,
    SPDSolver,
    elem_mean,
    grad_stiffness_vector,
    lump_elements,
    lumped_mass,
    stiffness_with_diag,
    strain,
)

NEG_TOL = 1e-12


@dataclass
class HeatProblem:
    """Frozen data of one enthalpy increment.

    ``q`` holds nodal source values (per unit volume), ``q_s`` an
    already-assembled boundary load vector; None means zero.  ``grad_mu``
    is the element chemical-potential gradient from the diffusion step.
    ``op`` lets the time loop share the system matrix across steps; it is
    built from mesh, material and tau when absent.
    """

    mesh: Mesh
    mat: MaterialModel
    tau: float
    u: np.ndarray
    u_prev: np.ndarray
    m: np.ndarray
    m_prev: np.ndarray
    grad_mu: np.ndarray
    w_prev: np.ndarray
    q: np.ndarray | None = None
    q_s: np.ndarray | None = None
    cg_tol: float = 1e-12
    picard_tol: float = 1e-10
    picard_max: int = 200
    op: SPDSolver | None = field(default=None, repr=False)

    def operator(self) -> SPDSolver:
        if self.op is None:
            self.op = build_heat_operator(self.mesh, self.mat, self.tau)
        return self.op


def build_heat_operator(mesh: Mesh, mat: MaterialModel,
                        tau: float) -> SPDSolver:
    """Solver for the enthalpy system K0-stiffness + lumped mass / tau.

    The conductivity is the material constant K0, independent of the
    state, so the matrix is fixed for the whole run.
    """
    return SPDSolver(stiffness_with_diag(mesh, mat.K0,
                                         lumped_mass(mesh) / tau),
                     "enthalpy solve")


@dataclass(frozen=True)
class HeatSolution:
    w: np.ndarray
    iterations: int
    cg_iterations: int  # inner PCG iterations, summed; 0 if tridiagonal
    update_norm: float
    produced: dict  # integrated right-hand-side terms, by name


def dissipation_rhs(pr: HeatProblem, w_lin: np.ndarray) -> dict:
    """Heat-production load vectors at the linearization state ``w_lin``.

    Element densities (viscous, adiabatic stress power, diffusional) are
    lumped to nodes; zero-order phase terms are evaluated nodally with the
    same lumped weights the mechanics step used, so the audit's phase and
    activation entries cancel against the mechanics ledger exactly.
    """
    mesh, mat, tau = pr.mesh, pr.mat, pr.tau
    Ml = lumped_mass(mesh)
    rate = strain(mesh, (pr.u - pr.u_prev) / tau)
    rate2 = np.einsum("eij,eij->e", rate, rate)
    visc_density = np.einsum("eij,eij->e", apply_viscosity(mat, rate), rate) \
        / (1.0 + tau * rate2)

    m_prev_e = elem_mean(mesh, pr.m_prev)
    w_lin_e = elem_mean(mesh, w_lin)
    sig = sigma_a_tensor(mat, m_prev_e, w_lin_e)
    adiab_density = np.einsum("eij,eij->e", sig, rate)

    gmu2 = np.einsum("ei,ei->e", pr.grad_mu, pr.grad_mu)
    diff_density = mat.M0 * gmu2 / (1.0 + tau * gmu2)

    dm = (pr.m - pr.m_prev) / tau
    phase_nodal = (s_a(mat, pr.m_prev, w_lin) + mat.alpha * dm) * dm
    act_nodal = mat.threshold_r * np.abs(dm)

    out = {
        "viscous": lump_elements(mesh, visc_density),
        "adiabatic_stress": lump_elements(mesh, adiab_density),
        "phase": Ml * phase_nodal,
        "activation": Ml * act_nodal,
        "diffusional": lump_elements(mesh, diff_density),
        "source": Ml * pr.q if pr.q is not None else np.zeros(mesh.n_nodes),
        "boundary": pr.q_s if pr.q_s is not None else np.zeros(mesh.n_nodes),
    }
    return out


def solve_w_step(pr: HeatProblem) -> HeatSolution:
    mesh, mat, tau = pr.mesh, pr.mat, pr.tau
    if np.min(pr.w_prev) < -NEG_TOL:
        raise InvariantViolation("previous enthalpy has negative nodes")
    if pr.q is not None and np.min(pr.q) < 0.0:
        raise InvariantViolation("negative heat source defeats w >= 0")
    if pr.q_s is not None and np.min(pr.q_s) < 0.0:
        raise InvariantViolation("negative boundary heat flux defeats w >= 0")

    Ml = lumped_mass(mesh)
    op = pr.operator()
    m_e = elem_mean(mesh, pr.m)
    w_lin = pr.w_prev.copy()
    w_new = w_lin
    update = np.inf
    produced = None
    cg_total = 0
    for it in range(1, pr.picard_max + 1):
        terms = dissipation_rhs(pr, w_lin)
        # cross conduction L = K0 d theta / d m acts on grad m
        L = mat.K0 * dtheta_dm(mat, m_e,
                               np.maximum(elem_mean(mesh, w_lin), 0.0))
        rhs = Ml * pr.w_prev / tau
        for vec in terms.values():
            rhs = rhs + vec
        if np.any(L != 0.0):
            rhs = rhs - grad_stiffness_vector(mesh, L, pr.m)
        w_new, cg_it = op.solve(rhs, w_lin, pr.cg_tol)
        cg_total += cg_it
        update = float(np.sqrt(np.sum(Ml * (w_new - w_lin) ** 2)))
        if update <= pr.picard_tol:
            produced = {k: float(v.sum()) for k, v in terms.items()}
            break
        w_lin = w_new
    else:
        raise StepFailure(
            f"enthalpy fixed-point loop stalled: update {update:.3e} "
            f"> {pr.picard_tol:.3e} after {pr.picard_max} iterations")

    if np.min(w_new) < -NEG_TOL:
        raise InvariantViolation(
            f"negative enthalpy {np.min(w_new):.3e}; check mesh structure "
            "and source signs")
    return HeatSolution(w=w_new, iterations=it, cg_iterations=cg_total,
                        update_norm=update, produced=produced)
