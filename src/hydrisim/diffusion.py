"""Hydrogen concentration step: a semilinear diffusion solve.

With the chemical potential eliminated through its chain rule, the update
is a lumped P1 system whose mobility-weighted coefficients depend on the
unknown concentration itself.  An undamped Picard loop freezes those
coefficients at the previous iterate; the bound (3.1a) keeps the mobility
away from zero and infinity, so the map contracts.  Each inner system is
a symmetric M-matrix.  On a 2D grid it goes first to CG from the last
iterate, preconditioned by ``grid.tensor_grid_inverse`` at the median
element coefficient, to the relative residual ``cg_tol``; the stiffness
annihilates constants, so one constant shift of the CG solution then sets
the sum of its residual to 0.  A 2D system goes to the exact solve
instead when its start or its CG solution has a node within
``_PCG_MARGIN`` of zero, when CG stalls, or when CG ends without an
iteration; the rest of that step is then solved exactly too.  The exact
solve, which every other system takes, is banded Cholesky in natural
node order when the mesh's half bandwidth is at most ``_BAND_MAX`` (every
1D mesh, and 2D grids with up to 127 nodes along the second axis), and
sparse LU otherwise.  Either way the residual of the final solve sums to
0 up to round-off, so testing the system with the constant function gives
the discrete hydrogen balance to solver precision: the lumped mass of chi
moves by exactly tau times the boundary influx.  The exact solve of an
M-matrix keeps chi >= 0, which is why an iterate near zero goes to it.
Non-negativity of chi is asserted, never clipped - clipping would falsify
that balance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .constitutive import (
    MaterialModel,
    chemical_potential,
    chi_curvatures,
)
from .errors import NEG_TOL, InvariantViolation, StepFailure
from .grid import (
    Mesh,
    SPDSolver,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lumped_mass,
    solve_stiffness_banded,
    stiffness_with_diag,
    tensor_grid_inverse,
)

log = logging.getLogger(__name__)

# Widest band solved by banded Cholesky; wider ones go to SuperLU.  One
# solve on a square grid, 2-core Xeon, one BLAS thread, banded against
# SuperLU (MMD on A + A^T): 40x40 0.75 vs 3.35 ms; 100x100 12.8 vs
# 21.6 ms, 8.2 vs 5.7 MB peak; 127x127 (kd = 128) 29.9 vs 40.9 ms, 16.3
# vs 10.4 MB; 150x150 52 vs 64 ms, 26.5 vs 15.4 MB; 200x200 131 vs
# 137 ms, 62 vs 30.5 MB.  Past kd = 128 the time gain shrinks while the
# band's memory, (kd + 1) * n doubles, keeps growing.
_BAND_MAX = 128

# A 2D Picard system whose start or CG solution has a node at or below
# this value goes to the exact solve, whose M-matrix structure guarantees
# chi >= 0; CG's error at cg_tol lies far below it on the concentrations
# that pass.
_PCG_MARGIN = 1e-6


@dataclass
class DiffusionProblem:
    """Frozen data of one concentration increment.

    ``h_s`` is the already-assembled nodal boundary-influx vector; None
    means an isolated specimen.
    """

    mesh: Mesh
    mat: MaterialModel
    tau: float
    m: np.ndarray
    chi_prev: np.ndarray
    h_s: np.ndarray | None = None
    picard_tol: float = 1e-10
    picard_max: int = 200
    cg_tol: float = 1e-12


@dataclass(frozen=True)
class DiffusionSolution:
    chi: np.ndarray
    mu: np.ndarray
    grad_mu: np.ndarray
    iterations: int
    update_norm: float
    cg_iterations: int  # 2D PCG iterations, summed over Picard solves
    exact_solves: int   # 2D Picard solves done by _solve


def assemble_mu(mesh: Mesh, mat: MaterialModel, m: np.ndarray,
                chi: np.ndarray, *, m_e: np.ndarray | None = None,
                grad_m: np.ndarray | None = None):
    """Nodal chemical potential and its element gradient.

    The gradient uses the chain rule d2cc*grad(chi) + d2cm*grad(m) with
    the curvature coefficients at element midpoint values, matching the
    flux assembly of the solver.  ``m_e`` and ``grad_m`` are the element
    mean and gradient of ``m`` when the caller holds them already.
    """
    mu = chemical_potential(mat, m, chi)
    if m_e is None:
        m_e = elem_mean(mesh, m)
    if grad_m is None:
        grad_m = grad_field(mesh, m)
    d2cc, d2cm = chi_curvatures(mat, m_e, elem_mean(mesh, chi))
    grad_mu = (d2cc[:, None] * grad_field(mesh, chi)
               + d2cm[:, None] * grad_m)
    return mu, grad_mu


def _element_coeffs(mat: MaterialModel, m_e: np.ndarray, chi_e: np.ndarray):
    """Mobility-weighted curvatures M0 d2phi1/dchi2 (on grad chi) and
    M0 d2phi1/dm dchi (on grad m) at element midpoint values."""
    d2cc, d2cm = chi_curvatures(mat, m_e, chi_e)
    return mat.M0 * d2cc, mat.M0 * d2cm


def _solve(mesh: Mesh, coeff, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (K(coeff) + diag(diag)) chi = rhs, K the scalar stiffness.
    The banded path fills its band from the assembled values; only
    SuperLU needs the matrix in CSR."""
    if mesh.half_bandwidth <= _BAND_MAX:
        return solve_stiffness_banded(mesh, coeff, diag, rhs,
                                      "concentration solve")
    A = stiffness_with_diag(mesh, coeff, diag)
    # SuperLU only warns on a NaN-poisoned matrix and returns NaN
    x = spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.isfinite(x).all():
        raise StepFailure(
            "concentration solve: sparse LU gave non-finite values")
    return x


def _solve_pcg(pr: DiffusionProblem, coeff, diag: np.ndarray,
               rhs: np.ndarray, x0: np.ndarray):
    """CG on the system of ``_solve`` from ``x0`` to ``pr.cg_tol``,
    preconditioned by the tensor model (median coeff, median coeff,
    1/tau), its solution then shifted by sum(r) / sum(diag), which sets
    the sum of its residual r to 0.  Returns (chi, CG iterations); chi is
    None, for the exact solve to take over, when CG stalls (a non-finite
    coefficient stops it at once), ends without an iteration, or leaves a
    node at or below ``_PCG_MARGIN``."""
    k = float(np.median(coeff))
    A = stiffness_with_diag(pr.mesh, coeff, diag)
    solver = SPDSolver(A, "concentration solve",
                       tensor_grid_inverse(pr.mesh, (k, k, 1.0 / pr.tau)))
    try:
        chi, iters = solver.solve(rhs, x0, pr.cg_tol)
    except StepFailure as exc:
        log.debug("%s; solving exactly", exc)
        return None, exc.iterations
    if iters == 0:
        # x0 meets cg_tol against |rhs|, which the mass term dominates:
        # a step's diffusion can lie below that, and a Picard update of
        # the shift alone would end the loop without it
        log.debug("concentration PCG: start within cg_tol; solving exactly")
        return None, 0
    chi += np.sum(rhs - A @ chi) / np.sum(diag)
    low = np.min(chi)
    if low <= _PCG_MARGIN:
        log.debug("concentration PCG: node at %.3e; solving exactly", low)
        return None, iters
    return chi, iters


def solve_chi_step(pr: DiffusionProblem) -> DiffusionSolution:
    mesh, mat = pr.mesh, pr.mat
    if np.min(pr.chi_prev) < -NEG_TOL:
        raise InvariantViolation("previous concentration has negative nodes")
    Ml = lumped_mass(mesh)
    rhs_fixed = Ml * pr.chi_prev / pr.tau
    if pr.h_s is not None:
        rhs_fixed = rhs_fixed + pr.h_s

    # m is fixed for the whole step
    m_e = elem_mean(mesh, pr.m)
    grad_m = grad_field(mesh, pr.m)
    diag = Ml / pr.tau
    chi_lin = pr.chi_prev.copy()
    chi_new = chi_lin
    update = np.inf
    last_update = None
    on_grid = mesh.dim == 2
    pcg = on_grid
    cg_total = exact = 0
    for it in range(1, pr.picard_max + 1):
        M1, M2 = _element_coeffs(mat, m_e, elem_mean(mesh, chi_lin))
        rhs = rhs_fixed - grad_stiffness_vector(mesh, M2, grad_m)
        chi_new = None
        if pcg and np.min(chi_lin) > _PCG_MARGIN:
            chi_new, cg_it = _solve_pcg(pr, M1, diag, rhs, chi_lin)
            cg_total += cg_it
        if chi_new is None:
            # a start near zero or a failed CG would likely recur on the
            # next Picard system, so the rest of the step is solved exactly
            pcg = False
            exact += on_grid
            chi_new = _solve(mesh, M1, diag, rhs)
        update = float(np.sqrt(np.sum(Ml * (chi_new - chi_lin) ** 2)))
        if update <= pr.picard_tol:
            break
        if last_update is not None and update > last_update:
            log.warning("concentration Picard update grew: %.3e -> %.3e",
                        last_update, update)
        last_update = update
        chi_lin = chi_new
    else:
        raise StepFailure(
            f"concentration Picard loop stalled: update {update:.3e} "
            f"> {pr.picard_tol:.3e} after {pr.picard_max} iterations")

    if np.min(chi_new) < -NEG_TOL:
        raise InvariantViolation(
            f"negative concentration {np.min(chi_new):.3e}; the scheme "
            "preserves chi >= 0 only on meshes with M-matrix stiffness "
            "and admissible step sizes")
    mu, grad_mu = assemble_mu(mesh, mat, pr.m, chi_new, m_e=m_e,
                              grad_m=grad_m)
    return DiffusionSolution(chi=chi_new, mu=mu, grad_mu=grad_mu,
                             iterations=it, update_norm=update,
                             cg_iterations=cg_total, exact_solves=exact)
