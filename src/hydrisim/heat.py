"""Enthalpy step: a semilinear heat solve that preserves w >= 0.

The conductivity acts on the new enthalpy while all heat production from
the just-computed mechanics, phase and diffusion increments sits on the
right-hand side.  The quadratic production terms carry a 1/(1+tau|.|^2)
denominator that caps each of them at coefficient/tau, and the adiabatic
terms vanish identically for nonpositive enthalpy; together with the
lumped M-matrix system this keeps the new enthalpy nonnegative, which is
asserted.  The system matrix is a run constant, solved by
``grid.SPDSolver`` under its one rule: on a 2D grid CG preconditioned by
``grid.tensor_grid_inverse`` with the one-component model
(K0, K0, 1/tau), which is the matrix up to the lumped mass of the 4
corner nodes, so CG converges in at most 5 iterations; on any other mesh,
every segment mesh among them, a banded Cholesky factor computed once
per run.  The adiabatic terms are implicit in w, handled by a plain
fixed-point loop; the production terms that do not depend on w are
computed once per step, before it.  The loop starts at the previous
enthalpy, so its first iterate reads sigma_a, s_a and the mean of w from
the previous state's ``StateTerms``, the arrays the displacement/phase
step froze, and later iterates evaluate them at their own w.  The
returned breakdown of the right-hand side is the one the final linear
solve actually saw, so ledger identities built on it hold to
linear-solver precision rather than picking up the Hoelder-type
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
from .errors import NEG_TOL, InvariantViolation, StepFailure
from .grid import (
    Mesh,
    SPDSolver,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lump_elements,
    lumped_mass,
    stiffness_with_diag,
    tensor_grid_inverse,
)
from .mech_phase import StateTerms


@dataclass(frozen=True)
class HeatProblem:
    """Frozen data of one enthalpy increment.

    ``prev`` holds the previous state, its mesh and material and its
    arrays, ``eps_new`` is the element strain of the new displacement
    (``MechPhaseSolution.strain``) and ``m`` the new phase.  ``grad_mu``
    is the element chemical-potential gradient from the diffusion step.
    ``op`` is the run's solver of the system matrix,
    ``build_heat_operator(prev.mesh, prev.mat, tau)``.  ``q`` holds nodal
    source values (per unit volume), ``q_s`` an already-assembled
    boundary load vector; None means zero.
    """

    tau: float
    prev: StateTerms
    eps_new: np.ndarray
    m: np.ndarray
    grad_mu: np.ndarray
    op: SPDSolver = field(repr=False)
    q: np.ndarray | None = None
    q_s: np.ndarray | None = None
    cg_tol: float = 1e-12
    picard_tol: float = 1e-10
    picard_max: int = 200


def build_heat_operator(mesh: Mesh, mat: MaterialModel,
                        tau: float) -> SPDSolver:
    """Solver for the enthalpy system K0-stiffness + lumped mass / tau.

    The conductivity is the material constant K0, independent of the
    state, so the matrix is fixed for the whole run.  On a 2D grid the
    matrix differs from the tensor-product model (K0, K0, 1/tau) that
    ``tensor_grid_inverse`` inverts only in the lumped mass of the 4
    corner nodes, so CG preconditioned by that inverse converges in at
    most 5 iterations.
    """
    return SPDSolver(stiffness_with_diag(mesh, mat.K0,
                                         lumped_mass(mesh) / tau),
                     "enthalpy solve",
                     tensor_grid_inverse(mesh, (mat.K0, mat.K0, 1.0 / tau)))


@dataclass(frozen=True)
class HeatSolution:
    w: np.ndarray
    iterations: int
    cg_iterations: int  # inner PCG iterations, summed; 0 off a 2D grid
    update_norm: float
    produced: dict  # integrated right-hand-side terms, by name
    strain_rate: np.ndarray  # (eps(u) - eps(u_prev))/tau, per element


def dissipation_rhs(pr: HeatProblem, w_lin: np.ndarray) -> dict:
    """Heat-production load vectors at the linearization state ``w_lin``.

    Element densities (viscous, adiabatic stress power, diffusional) are
    lumped to nodes; zero-order phase terms are evaluated nodally with the
    same lumped weights the mechanics step used, so the audit's phase and
    activation entries cancel against the mechanics ledger exactly.
    """
    return _iterate_terms(pr, _fixed_terms(pr), *_adiabatic_at(
        pr, w_lin, elem_mean(pr.prev.mesh, w_lin)))


def _fixed_terms(pr: HeatProblem) -> tuple:
    """The w-independent part of ``dissipation_rhs``, computed once per
    step: the element strain rate, the nodal phase rate and the load
    vectors, with None for the two that depend on w.  The key order is
    the order in which the right-hand side adds them."""
    mesh, mat, tau = pr.prev.mesh, pr.prev.mat, pr.tau
    Ml = lumped_mass(mesh)
    # strain is linear in u: the rate is the difference of the strains
    rate = (pr.eps_new - pr.prev.strain) / tau
    rate2 = np.einsum("eij,eij->e", rate, rate)
    visc_density = np.einsum("eij,eij->e", apply_viscosity(mat, rate), rate) \
        / (1.0 + tau * rate2)

    gmu2 = np.einsum("ei,ei->e", pr.grad_mu, pr.grad_mu)
    diff_density = mat.M0 * gmu2 / (1.0 + tau * gmu2)

    dm = (pr.m - pr.prev.state.m) / tau
    act_nodal = mat.threshold_r * np.abs(dm)
    loads = {
        "viscous": lump_elements(mesh, visc_density),
        "adiabatic_stress": None,
        "phase": None,
        "activation": Ml * act_nodal,
        "diffusional": lump_elements(mesh, diff_density),
        "source": Ml * pr.q if pr.q is not None else np.zeros(mesh.n_nodes),
        "boundary": pr.q_s if pr.q_s is not None else np.zeros(mesh.n_nodes),
    }
    return rate, dm, loads


def _adiabatic_at(pr: HeatProblem, w_lin: np.ndarray,
                  w_e: np.ndarray) -> tuple:
    """Element sigma_a and nodal s_a at the previous phase and ``w_lin``,
    whose element mean is ``w_e``."""
    prev = pr.prev
    return (sigma_a_tensor(prev.mat, prev.m_mean, w_e),
            s_a(prev.mat, prev.state.m, w_lin))


def _iterate_terms(pr: HeatProblem, fixed: tuple, sig: np.ndarray,
                   sa_node: np.ndarray) -> dict:
    """The load vectors of ``fixed`` with the adiabatic stress power of
    the element sigma_a ``sig`` and the phase heating of the nodal s_a
    ``sa_node`` filled in, in the same key order."""
    mesh, mat = pr.prev.mesh, pr.prev.mat
    rate, dm, loads = fixed
    adiab_density = np.einsum("eij,eij->e", sig, rate)
    phase_nodal = (sa_node + mat.alpha * dm) * dm
    return {**loads,
            "adiabatic_stress": lump_elements(mesh, adiab_density),
            "phase": lumped_mass(mesh) * phase_nodal}


def solve_w_step(pr: HeatProblem) -> HeatSolution:
    mesh, mat, tau = pr.prev.mesh, pr.prev.mat, pr.tau
    w_prev = pr.prev.state.w
    if np.min(w_prev) < -NEG_TOL:
        raise InvariantViolation("previous enthalpy has negative nodes")
    if pr.q is not None and np.min(pr.q) < 0.0:
        raise InvariantViolation("negative heat source defeats w >= 0")
    if pr.q_s is not None and np.min(pr.q_s) < 0.0:
        raise InvariantViolation("negative boundary heat flux defeats w >= 0")

    Ml = lumped_mass(mesh)
    # cross conduction L = K0 d theta / d m acts on grad m, which is fixed
    # over the step; it vanishes unless c0 depends on m
    cross = mat.c0_m_slope != 0.0
    if cross:
        m_e, grad_m = elem_mean(mesh, pr.m), grad_field(mesh, pr.m)
    fixed = _fixed_terms(pr)
    w_lin = w_prev.copy()
    w_e = pr.prev.w_mean  # the element mean of each iterate, taken once
    adiab = pr.prev.sigma_a, pr.prev.s_a
    w_new = w_lin
    update = np.inf
    produced = None
    cg_total = 0
    for it in range(1, pr.picard_max + 1):
        terms = _iterate_terms(pr, fixed, *adiab)
        rhs = Ml * w_prev / tau
        for vec in terms.values():
            rhs = rhs + vec
        if cross:
            L = mat.K0 * dtheta_dm(mat, m_e, np.maximum(w_e, 0.0))
            if np.any(L != 0.0):
                rhs = rhs - grad_stiffness_vector(mesh, L, grad_m)
        w_new, cg_it = pr.op.solve(rhs, w_lin, pr.cg_tol)
        cg_total += cg_it
        update = float(np.sqrt(np.sum(Ml * (w_new - w_lin) ** 2)))
        if update <= pr.picard_tol:
            produced = {k: float(v.sum()) for k, v in terms.items()}
            break
        w_lin = w_new
        w_e = elem_mean(mesh, w_lin)
        adiab = _adiabatic_at(pr, w_lin, w_e)
    else:
        raise StepFailure(
            f"enthalpy fixed-point loop stalled: update {update:.3e} "
            f"> {pr.picard_tol:.3e} after {pr.picard_max} iterations")

    if np.min(w_new) < -NEG_TOL:
        raise InvariantViolation(
            f"negative enthalpy {np.min(w_new):.3e}; check mesh structure "
            "and source signs")
    return HeatSolution(w=w_new, iterations=it, cg_iterations=cg_total,
                        update_norm=update, produced=produced,
                        strain_rate=fixed[0])
