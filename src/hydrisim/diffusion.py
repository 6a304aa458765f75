"""Hydrogen concentration step: a semilinear diffusion solve.

With the chemical potential eliminated through its chain rule, the update
is a lumped P1 system whose mobility-weighted coefficients depend on the
unknown concentration itself.  An undamped Picard loop freezes those
coefficients at the previous iterate; the bound (3.1a) keeps the mobility
away from zero and infinity, so the map contracts.  Each inner system is
a symmetric M-matrix solved exactly: by banded Cholesky in natural node
order when the mesh's half bandwidth is at most ``_BAND_MAX`` (every 1D
mesh, and 2D grids with up to 127 nodes along the second axis), by
sparse LU otherwise.  The returned iterate is the raw output of the
final solve, so testing the system with the constant function gives
the discrete hydrogen balance to solver precision: the lumped mass of chi
moves by exactly tau times the boundary influx.  Non-negativity of chi is
asserted, never clipped - clipping would falsify that balance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .constitutive import (
    MaterialModel,
    chemical_potential,
    d2phi1_dchichi,
    d2phi1_dmchi,
)
from .errors import InvariantViolation, StepFailure
from .grid import (
    Mesh,
    elem_mean,
    grad_field,
    grad_stiffness_vector,
    lumped_mass,
    solve_stiffness_banded,
    stiffness_with_diag,
)

log = logging.getLogger(__name__)

NEG_TOL = 1e-12

# Widest band solved by banded Cholesky; wider ones go to SuperLU.  One
# solve on a square grid, 2-core Xeon, one BLAS thread, banded against
# SuperLU (MMD on A + A^T): 40x40 0.75 vs 3.35 ms; 100x100 12.8 vs
# 21.6 ms, 8.2 vs 5.7 MB peak; 127x127 (kd = 128) 29.9 vs 40.9 ms, 16.3
# vs 10.4 MB; 150x150 52 vs 64 ms, 26.5 vs 15.4 MB; 200x200 131 vs
# 137 ms, 62 vs 30.5 MB.  Past kd = 128 the time gain shrinks while the
# band's memory, (kd + 1) * n doubles, keeps growing.
_BAND_MAX = 128


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


@dataclass(frozen=True)
class DiffusionSolution:
    chi: np.ndarray
    mu: np.ndarray
    grad_mu: np.ndarray
    iterations: int
    update_norm: float


def assemble_mu(mesh: Mesh, mat: MaterialModel, m: np.ndarray,
                chi: np.ndarray):
    """Nodal chemical potential and its element gradient.

    The gradient uses the chain rule d2cc*grad(chi) + d2cm*grad(m) with
    the curvature coefficients at element midpoint values, matching the
    flux assembly of the solver.
    """
    mu = chemical_potential(mat, m, chi)
    m_e = elem_mean(mesh, m)
    chi_e = elem_mean(mesh, chi)
    grad_mu = (d2phi1_dchichi(mat, m_e, chi_e)[:, None] * grad_field(mesh, chi)
               + d2phi1_dmchi(mat, m_e, chi_e)[:, None] * grad_field(mesh, m))
    return mu, grad_mu


def _element_coeffs(mat: MaterialModel, m_e: np.ndarray, chi_e: np.ndarray):
    """Mobility-weighted curvatures M0 d2phi1/dchi2 (on grad chi) and
    M0 d2phi1/dm dchi (on grad m) at element midpoint values."""
    return (mat.M0 * d2phi1_dchichi(mat, m_e, chi_e),
            mat.M0 * d2phi1_dmchi(mat, m_e, chi_e))


def _solve(mesh: Mesh, A, rhs: np.ndarray) -> np.ndarray:
    if mesh.half_bandwidth <= _BAND_MAX:
        return solve_stiffness_banded(mesh, A, rhs, "concentration solve")
    # SuperLU only warns on a NaN-poisoned matrix and returns NaN
    x = spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.isfinite(x).all():
        raise StepFailure(
            "concentration solve: sparse LU gave non-finite values")
    return x


def solve_chi_step(pr: DiffusionProblem) -> DiffusionSolution:
    mesh, mat = pr.mesh, pr.mat
    if np.min(pr.chi_prev) < -NEG_TOL:
        raise InvariantViolation("previous concentration has negative nodes")
    Ml = lumped_mass(mesh)
    rhs_fixed = Ml * pr.chi_prev / pr.tau
    if pr.h_s is not None:
        rhs_fixed = rhs_fixed + pr.h_s

    m_e = elem_mean(mesh, pr.m)
    chi_lin = pr.chi_prev.copy()
    chi_new = chi_lin
    update = np.inf
    last_update = None
    for it in range(1, pr.picard_max + 1):
        M1, M2 = _element_coeffs(mat, m_e, elem_mean(mesh, chi_lin))
        A = stiffness_with_diag(mesh, M1, Ml / pr.tau)
        rhs = rhs_fixed - grad_stiffness_vector(mesh, M2, pr.m)
        chi_new = _solve(mesh, A, rhs)
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
    mu, grad_mu = assemble_mu(mesh, mat, pr.m, chi_new)
    return DiffusionSolution(chi=chi_new, mu=mu, grad_mu=grad_mu,
                             iterations=it, update_norm=update)
