"""Discrete energy bookkeeping for whole trajectories.

Every term is assembled with the same quadrature the solvers use: elastic
and viscous quantities per element, the chemical energy and the phase
dissipation with the lumped nodal weights, the diffusive dissipation via
the exact flux identity of the concentration solve.  On top of the named
physical columns this reconstructs three audit series parameterized the
way the underlying balance identity is: the mechanical balance (nu=0)
whose residual is pure solver noise, the mixed inequality (nu=1/2) whose
slack collects the scheme's intrinsic numerical dissipation and convexity
gaps and must stay nonnegative, and the total-energy defect (nu=1) which
is first order in the step size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .constitutive import (
    MaterialModel,
    apply_elastic,
    apply_viscosity,
    dphi1_dm,
    phi1,
    s_a,
    sigma_a_tensor,
)
from .diffusion import assemble_mu
from .grid import (
    Mesh,
    elem_mean,
    grad_field,
    lumped_mass,
    stiffness,
    strain,
    vector_lumped_mass,
)
from .state import State, Trajectory

CSV_COLUMNS = ("t", "kinetic", "stored", "gradient", "thermal",
               "diss_viscous", "diss_phase", "diss_activation",
               "diss_diffusion", "work_ext", "residual_nu0", "slack_nu05",
               "residual_nu1", "mass_chi", "min_chi", "min_w")

# norms asserted stable under step refinement; the dual-norm surrogates
# below them are reported only
APRIORI_ASSERTED = (
    "u_rate_sup_l2", "u_h1_h1", "m_sup_h1", "m_rate_l2", "m_sup_abs",
    "chi_sup_h1", "mu_sup_h1", "w_sup_l1", "w_grad_l98",
)


@dataclass
class LedgerRow:
    """Energies after one step plus all increments accrued during it."""

    t: float
    kinetic: float
    stored: float
    gradient: float
    thermal: float
    diss_viscous: float = 0.0
    diss_phase: float = 0.0
    diss_activation: float = 0.0
    diss_diffusion: float = 0.0      # quadratic mobility form, >= 0
    diss_diffusion_dual: float = 0.0  # flux-potential pairing, exact in audits
    numdiss: float = 0.0             # backward-difference squares
    gap_m: float = 0.0               # phase convexity gap of phi1
    gap_chi: float = 0.0             # concentration convexity gap of phi1
    xi_term: float = 0.0             # multiplier times phase increment
    adiab_expl: float = 0.0          # sigma_a, s_a powers at the previous state
    work_mech: float = 0.0           # loads on du plus boundary influx on mu
    heat_supplied: float = 0.0       # external q and q_s only
    heat_total: float = 0.0          # everything the enthalpy solve received
    mass_chi: float = 0.0
    min_chi: float = 0.0
    min_w: float = 0.0

    @property
    def energy(self) -> float:
        return self.kinetic + self.stored + self.gradient


def _energies(mesh: Mesh, mat: MaterialModel, st: State, tau: float):
    Ml = lumped_mass(mesh)
    Mv = vector_lumped_mass(mesh)
    v = st.velocity(tau)
    kinetic = 0.5 * mat.rho * float(np.sum(Mv * v ** 2))
    eps = strain(mesh, st.u)
    a = eps - elem_mean(mesh, st.m)[:, None, None] * mat.eps_tr_mat
    elastic = 0.5 * float(np.einsum("eij,eij,e->", apply_elastic(mat, a), a,
                                    mesh.volumes))
    chem = float(np.sum(Ml * phi1(mat, st.m, st.chi)))
    gm = grad_field(mesh, st.m)
    gradient = 0.5 * mat.grad_coeff * float(
        np.einsum("ei,ei,e->", gm, gm, mesh.volumes))
    thermal = float(np.sum(Ml * st.w))
    return kinetic, elastic + chem, gradient, thermal


def initial_row(mesh: Mesh, mat: MaterialModel, st: State,
                tau: float) -> LedgerRow:
    kin, sto, grad, th = _energies(mesh, mat, st, tau)
    Ml = lumped_mass(mesh)
    return LedgerRow(t=st.t, kinetic=kin, stored=sto, gradient=grad,
                     thermal=th, mass_chi=float(np.sum(Ml * st.chi)),
                     min_chi=float(np.min(st.chi)), min_w=float(np.min(st.w)))


def ledger_step(mesh: Mesh, mat: MaterialModel, prev: State, cur: State,
                tau: float, sources: dict, heat_produced: dict) -> LedgerRow:
    """Assemble one audit row from two consecutive states.

    ``sources`` holds the assembled per-step load vectors under the keys
    f, f_s, h_s (None for absent ones); ``heat_produced`` is the enthalpy
    solver's integrated right-hand-side breakdown.
    """
    Ml = lumped_mass(mesh)
    Mv = vector_lumped_mass(mesh)
    vol = mesh.volumes
    kin, sto, grad, th = _energies(mesh, mat, cur, tau)

    du = cur.velocity(tau)
    du_prev = prev.velocity(tau)
    dm = cur.m - prev.m
    dchi = cur.chi - prev.chi

    eps_k = strain(mesh, cur.u)
    eps_p = strain(mesh, prev.u)
    a_k = eps_k - elem_mean(mesh, cur.m)[:, None, None] * mat.eps_tr_mat
    a_p = eps_p - elem_mean(mesh, prev.m)[:, None, None] * mat.eps_tr_mat
    da = a_k - a_p
    numdiss = 0.5 * mat.rho * float(np.sum(Mv * (du - du_prev) ** 2))
    numdiss += 0.5 * float(np.einsum("eij,eij,e->",
                                     apply_elastic(mat, da), da, vol))
    gdm = grad_field(mesh, dm)
    numdiss += 0.5 * mat.grad_coeff * float(
        np.einsum("ei,ei,e->", gdm, gdm, vol))

    gap_m = float(np.sum(Ml * (dphi1_dm(mat, cur.m, prev.chi) * dm
                               - phi1(mat, cur.m, prev.chi)
                               + phi1(mat, prev.m, prev.chi))))
    gap_chi = float(np.sum(Ml * (cur.mu * dchi
                                 - phi1(mat, cur.m, cur.chi)
                                 + phi1(mat, cur.m, prev.chi))))
    xi_term = float(np.sum(Ml * cur.xi * dm))

    rate = strain(mesh, du)
    diss_viscous = tau * float(np.einsum(
        "eij,eij,e->", apply_viscosity(mat, rate), rate, vol))
    diss_phase = mat.alpha / tau * float(np.sum(Ml * dm ** 2))
    diss_activation = mat.threshold_r * float(np.sum(Ml * np.abs(dm)))

    hs = sources.get("h_s")
    hs_work = tau * float(hs @ cur.mu) if hs is not None else 0.0
    diss_diffusion_dual = hs_work - float(np.sum(Ml * dchi * cur.mu))
    _, gmu = assemble_mu(mesh, mat, cur.m, cur.chi)
    diss_diffusion = tau * float(np.einsum(
        "ei,ei,e,e->", gmu, gmu, np.full(mesh.n_elems, mat.M0), vol))

    m_e = elem_mean(mesh, prev.m)
    w_e = elem_mean(mesh, prev.w)
    sig = sigma_a_tensor(mat, m_e, w_e)
    adiab_expl = tau * float(np.einsum("eij,eij,e->", sig, rate, vol))
    adiab_expl += float(np.sum(Ml * s_a(mat, prev.m, prev.w) * dm))

    work_mech = hs_work
    f = sources.get("f")
    if f is not None:
        work_mech += tau * float(f @ du)
    fs = sources.get("f_s")
    if fs is not None:
        work_mech += tau * float(fs @ du)

    heat_supplied = tau * (heat_produced.get("source", 0.0)
                           + heat_produced.get("boundary", 0.0))
    heat_total = tau * float(sum(heat_produced.values()))

    return LedgerRow(
        t=cur.t, kinetic=kin, stored=sto, gradient=grad, thermal=th,
        diss_viscous=diss_viscous, diss_phase=diss_phase,
        diss_activation=diss_activation, diss_diffusion=diss_diffusion,
        diss_diffusion_dual=diss_diffusion_dual, numdiss=numdiss,
        gap_m=gap_m, gap_chi=gap_chi, xi_term=xi_term,
        adiab_expl=adiab_expl, work_mech=work_mech,
        heat_supplied=heat_supplied, heat_total=heat_total,
        mass_chi=float(np.sum(Ml * cur.chi)),
        min_chi=float(np.min(cur.chi)), min_w=float(np.min(cur.w)))


def _dissipation(row: LedgerRow) -> float:
    return (row.diss_viscous + row.diss_phase + row.diss_activation
            + row.diss_diffusion_dual)


def slack(prev: LedgerRow, row: LedgerRow) -> float:
    """Slack of the dissipation inequality over the step ending in ``row``
    (the nu=1/2 series), nonnegative up to solver tolerances."""
    dE = row.energy - prev.energy
    dTh = row.thermal - prev.thermal
    return -(dE + 0.5 * dTh + _dissipation(row) + row.adiab_expl
             - row.work_mech - 0.5 * row.heat_total)


def balance_residual(traj: Trajectory, nu: float) -> np.ndarray:
    """Audit series over the steps of a run, one value per step.

    nu=0 returns the accumulated mechanical-balance residual (solver
    noise), nu=1 the accumulated total-energy defect (first order in the
    step), nu=1/2 the per-step slack of the dissipation inequality, which
    is nonnegative up to solver tolerances.
    """
    rows = traj.rows
    if not rows:
        return np.zeros(0)
    vals = []
    for prev, cur in zip(rows[:-1], rows[1:]):
        dE = cur.energy - prev.energy
        if nu == 0:
            vals.append(dE + cur.numdiss + cur.gap_m + cur.gap_chi
                        + cur.xi_term + _dissipation(cur) + cur.adiab_expl
                        - cur.work_mech)
        elif nu == 1:
            vals.append(dE + (cur.thermal - prev.thermal) - cur.work_mech
                        - cur.heat_supplied)
        elif nu == 0.5:
            vals.append(slack(prev, cur))
        else:
            raise ValueError("nu must be 0, 0.5 or 1")
    vals = np.asarray(vals)
    if nu == 0.5:
        return vals
    return np.cumsum(vals)


def ledger_columns(traj: Trajectory) -> dict:
    rows = traj.rows
    n = len(rows)
    cols = {name: np.zeros(n) for name in CSV_COLUMNS}
    for i, r in enumerate(rows):
        for name in ("t", "kinetic", "stored", "gradient", "thermal",
                     "diss_viscous", "diss_phase", "diss_activation",
                     "diss_diffusion", "mass_chi", "min_chi", "min_w"):
            cols[name][i] = getattr(r, name)
        cols["work_ext"][i] = r.work_mech + r.heat_supplied
    if n > 1:
        cols["residual_nu0"][1:] = balance_residual(traj, 0.0)
        cols["slack_nu05"][1:] = balance_residual(traj, 0.5)
        cols["residual_nu1"][1:] = balance_residual(traj, 1.0)
    return cols


def write_energy_csv(traj: Trajectory, path):
    """Emit the run ledger; the fixed-format floats make reruns
    byte-identical."""
    cols = ledger_columns(traj)
    n = len(traj.rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(n):
            writer.writerow(["%.17g" % cols[name][i] for name in CSV_COLUMNS])


# ---------------------------------------------------------------------------
# norm monitors


def _h1_scalar(mesh, Ml, vol, v):
    g = grad_field(mesh, v)
    return float(np.sqrt(np.sum(Ml * v ** 2)
                         + np.einsum("ei,ei,e->", g, g, vol)))


def apriori_monitor(traj: Trajectory) -> dict:
    """Named norms of the run, uniform in the step size for sound data.

    The first block is asserted stable under refinement; the dual-norm
    entries at the end use a lumped Riesz surrogate and are informational.
    """
    mesh, mat, tau = traj.mesh, traj.mat, traj.tau
    Ml = lumped_mass(mesh)
    Mv = vector_lumped_mass(mesh)
    vol = mesh.volumes
    states = traj.states

    def vec_l2(v):
        return float(np.sqrt(np.sum(Mv * v ** 2)))

    def vec_h1(v):
        eps = strain(mesh, v)
        return float(np.sqrt(np.sum(Mv * v ** 2)
                             + np.einsum("eij,eij,e->", eps, eps, vol)))

    rates = [s.velocity(tau) for s in states]
    out = {
        "u_rate_sup_l2": max(vec_l2(v) for v in rates),
        "u_h1_h1": float(np.sqrt(sum(
            tau * (vec_h1(s.u) ** 2 + vec_h1(v) ** 2)
            for s, v in zip(states[1:], rates[1:])))),
        "m_sup_h1": max(_h1_scalar(mesh, Ml, vol, s.m) for s in states),
        "m_rate_l2": float(np.sqrt(sum(
            np.sum(Ml * (b.m - a.m) ** 2) / tau
            for a, b in zip(states[:-1], states[1:])))),
        "m_sup_abs": max(float(np.max(np.abs(s.m))) for s in states),
        "chi_sup_h1": max(_h1_scalar(mesh, Ml, vol, s.chi) for s in states),
        "w_sup_l1": max(float(np.sum(Ml * np.abs(s.w))) for s in states),
    }
    mu_norms = []
    for s in states:
        mu, gmu = assemble_mu(mesh, mat, s.m, s.chi)
        mu_norms.append(np.sqrt(np.sum(Ml * mu ** 2)
                                + np.einsum("ei,ei,e->", gmu, gmu, vol)))
    out["mu_sup_h1"] = float(max(mu_norms))
    r = 9.0 / 8.0
    acc = 0.0
    for s in states[1:]:
        gw = grad_field(mesh, s.w)
        acc += tau * float(np.sum(vol * np.linalg.norm(gw, axis=1) ** r))
    out["w_grad_l98"] = acc ** (1.0 / r)

    # dual-norm surrogates through the lumped Riesz map (mass + stiffness)
    R = (sp.diags(Ml) + stiffness(mesh, 1.0)).tocsc()
    solve = spla.factorized(R)

    def dual_scalar(v):
        load = Ml * v
        return float(np.sqrt(load @ solve(load)))

    def dual_vector(v):
        v = v.reshape(-1, mesh.dim)
        total = 0.0
        for c in range(mesh.dim):
            load = Ml * v[:, c]
            total += float(load @ solve(load))
        return np.sqrt(total)

    accel = [(b - a) / tau for a, b in zip(rates[:-1], rates[1:])]
    out["accel_dual_l2"] = float(np.sqrt(sum(
        tau * dual_vector(mat.rho * a) ** 2 for a in accel))) if accel else 0.0
    out["w_rate_dual_l1"] = float(sum(
        tau * dual_scalar((b.w - a.w) / tau)
        for a, b in zip(states[:-1], states[1:])))
    out["chi_rate_dual_l2"] = float(np.sqrt(sum(
        tau * dual_scalar((b.chi - a.chi) / tau) ** 2
        for a, b in zip(states[:-1], states[1:]))))
    K1 = stiffness(mesh, 1.0)
    out["m_lap_l2"] = float(np.sqrt(sum(
        tau * np.sum(Ml * (np.asarray(K1 @ s.m) / Ml) ** 2)
        for s in states[1:])))
    out["xi_l2"] = float(np.sqrt(sum(
        tau * np.sum(Ml * s.xi ** 2) for s in states[1:])))
    return out
