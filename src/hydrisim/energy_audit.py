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

The ledger row of a step reads the arrays its stages already built
instead of computing them again from the states: the chemical-potential
gradient of the concentration solve, the strain rate of the enthalpy
solve, and the ``StateTerms`` of the two states, through which the
displacement/phase step, the enthalpy solve and the ledger share each
state's strain, elastic strain, a(chi), phi1, sigma_a and s_a.  The
audit stays exact because these are the very arrays the stages balanced
their own equations with, from the same formulas; a recomputation from
the states gives the same bits, at the cost of a second evaluation per
step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .constitutive import (
    MaterialModel,
    apply_elastic,
    apply_viscosity,
    dphi1_dm,
    phi1,
)
from .diffusion import assemble_mu
from .grid import (
    Mesh,
    SPDSolver,
    grad_field,
    lumped_mass,
    stiffness,
    stiffness_with_diag,
    strain,
    strain_pairing,
    vector_lumped_mass,
)
from .mech_phase import StateTerms
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


def _energies(mesh: Mesh, mat: MaterialModel, terms: StateTerms,
              tau: float):
    """Kinetic, stored, gradient and thermal energy of ``terms.state``."""
    st = terms.state
    Ml = lumped_mass(mesh)
    Mv = vector_lumped_mass(mesh)
    v = st.velocity(tau)
    kinetic = 0.5 * mat.rho * float(np.sum(Mv * v ** 2))
    a = terms.elastic_strain
    elastic = 0.5 * strain_pairing(mesh, apply_elastic(mat, a), a)
    chem = float(np.sum(Ml * terms.phi1))
    gm = grad_field(mesh, st.m)
    gradient = 0.5 * mat.grad_coeff * float(
        np.einsum("ei,ei,e->", gm, gm, mesh.volumes))
    thermal = float(np.sum(Ml * st.w))
    return kinetic, elastic + chem, gradient, thermal


def initial_row(mesh: Mesh, mat: MaterialModel, st: State, tau: float):
    """The ledger row of the initial state, and its ``StateTerms`` for
    the first step."""
    terms = StateTerms(mesh, mat, st)
    kin, sto, grad, th = _energies(mesh, mat, terms, tau)
    Ml = lumped_mass(mesh)
    row = LedgerRow(t=st.t, kinetic=kin, stored=sto, gradient=grad,
                    thermal=th, mass_chi=float(np.sum(Ml * st.chi)),
                    min_chi=float(np.min(st.chi)), min_w=float(np.min(st.w)))
    return row, terms


def ledger_step(mesh: Mesh, mat: MaterialModel, prev_terms: StateTerms,
                cur_terms: StateTerms, tau: float, sources: dict,
                heat_produced: dict, *, grad_mu: np.ndarray,
                strain_rate: np.ndarray) -> LedgerRow:
    """Assemble the audit row of the step from ``prev_terms.state`` to
    ``cur_terms.state``.

    ``sources`` holds the assembled per-step load vectors under the keys
    f, f_s, h_s (None for absent ones); ``heat_produced`` is the enthalpy
    solver's integrated right-hand-side breakdown.  The ``StateTerms`` of
    the two states carry the arrays the stages shared: the previous
    state's elastic strain, a(chi), phi1, sigma_a and s_a, and the new
    state's strain (``MechPhaseSolution.strain``), elastic strain and
    phi1.  The keyword inputs are the other stage arrays, taken as they
    are: ``grad_mu`` the element gradient of the chemical potential at
    the new state (``DiffusionSolution.grad_mu``, ``assemble_mu(mesh,
    mat, cur.m, cur.chi)[1]``) and ``strain_rate`` the element strain of
    its velocity (``HeatSolution.strain_rate``).
    """
    prev, cur = prev_terms.state, cur_terms.state
    Ml = lumped_mass(mesh)
    Mv = vector_lumped_mass(mesh)
    vol = mesh.volumes
    kin, sto, grad, th = _energies(mesh, mat, cur_terms, tau)

    du = cur.velocity(tau)
    du_prev = prev.velocity(tau)
    dm = cur.m - prev.m
    dchi = cur.chi - prev.chi

    da = cur_terms.elastic_strain - prev_terms.elastic_strain
    numdiss = 0.5 * mat.rho * float(np.sum(Mv * (du - du_prev) ** 2))
    numdiss += 0.5 * strain_pairing(mesh, apply_elastic(mat, da), da)
    gdm = grad_field(mesh, dm)
    numdiss += 0.5 * mat.grad_coeff * float(
        np.einsum("ei,ei,e->", gdm, gdm, vol))

    # phi1 at the new phase and the previous concentration enters both gaps
    a = prev_terms.swelling
    phi_mix = phi1(mat, cur.m, prev.chi, a=a)
    gap_m = float(np.sum(Ml * (dphi1_dm(mat, cur.m, prev.chi, a=a) * dm
                               - phi_mix
                               + prev_terms.phi1)))
    gap_chi = float(np.sum(Ml * (cur.mu * dchi - cur_terms.phi1 + phi_mix)))
    xi_term = float(np.sum(Ml * cur.xi * dm))

    diss_viscous = tau * strain_pairing(
        mesh, apply_viscosity(mat, strain_rate), strain_rate)
    diss_phase = mat.alpha / tau * float(np.sum(Ml * dm ** 2))
    diss_activation = mat.threshold_r * float(np.sum(Ml * np.abs(dm)))

    hs = sources.get("h_s")
    hs_work = tau * float(hs @ cur.mu) if hs is not None else 0.0
    diss_diffusion_dual = hs_work - float(np.sum(Ml * dchi * cur.mu))
    diss_diffusion = tau * float(np.einsum(
        "ei,ei,e,e->", grad_mu, grad_mu, np.full(mesh.n_elems, mat.M0), vol))

    adiab_expl = tau * strain_pairing(mesh, prev_terms.sigma_a, strain_rate)
    adiab_expl += float(np.sum(Ml * prev_terms.s_a * dm))

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

    row = LedgerRow(
        t=cur.t, kinetic=kin, stored=sto, gradient=grad, thermal=th,
        diss_viscous=diss_viscous, diss_phase=diss_phase,
        diss_activation=diss_activation, diss_diffusion=diss_diffusion,
        diss_diffusion_dual=diss_diffusion_dual, numdiss=numdiss,
        gap_m=gap_m, gap_chi=gap_chi, xi_term=xi_term,
        adiab_expl=adiab_expl, work_mech=work_mech,
        heat_supplied=heat_supplied, heat_total=heat_total,
        mass_chi=float(np.sum(Ml * cur.chi)),
        min_chi=float(np.min(cur.chi)), min_w=float(np.min(cur.w)))
    return row


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


def step_residual(prev: LedgerRow, cur: LedgerRow, nu: float) -> float:
    """The audit value of the step from ``prev`` to ``cur``: its increment
    of the mechanical-balance residual (nu=0) or of the total-energy
    defect (nu=1), or its dissipation-inequality slack (nu=1/2)."""
    dE = cur.energy - prev.energy
    if nu == 0:
        return (dE + cur.numdiss + cur.gap_m + cur.gap_chi + cur.xi_term
                + _dissipation(cur) + cur.adiab_expl - cur.work_mech)
    if nu == 1:
        return (dE + (cur.thermal - prev.thermal) - cur.work_mech
                - cur.heat_supplied)
    if nu == 0.5:
        return slack(prev, cur)
    raise ValueError("nu must be 0, 0.5 or 1")


def balance_residual(traj: Trajectory, nu: float) -> np.ndarray:
    """Audit series over the steps of a run, one value per step.

    nu=0 returns the accumulated mechanical-balance residual (solver
    noise), nu=1 the accumulated total-energy defect (first order in the
    step), nu=1/2 the per-step slack of the dissipation inequality, which
    is nonnegative up to solver tolerances.
    """
    rows = traj.rows
    vals = np.asarray([step_residual(prev, cur, nu)
                       for prev, cur in zip(rows[:-1], rows[1:])], float)
    return vals if nu == 0.5 else np.cumsum(vals)


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


def _h1(weights, v, grad, vol) -> float:
    """Discrete H1 norm of the nodal field ``v`` (``weights`` its lumped
    mass) with ``grad`` its element gradient or strain."""
    g = grad.reshape(vol.size, -1)
    return float(np.sqrt(np.sum(weights * v ** 2)
                         + np.einsum("ei,ei,e->", g, g, vol)))


class AprioriMonitor:
    """Named norms of a run, uniform in the step size for sound data,
    kept as running maxima and sums over its states in step order from
    step 0: ``states``, then each one passed to ``add``.  Only the last
    state is held.

    The first block is asserted stable under refinement; the dual-norm
    entries at the end use a lumped Riesz surrogate and are informational.
    """

    def __init__(self, mesh: Mesh, mat: MaterialModel, tau: float,
                 states=()):
        self.mesh, self.mat, self.tau = mesh, mat, tau
        self.Ml = lumped_mass(mesh)
        self.Mv = vector_lumped_mass(mesh)
        self.K1 = stiffness(mesh, 1.0)
        # dual-norm surrogates through the lumped Riesz map (mass +
        # stiffness), factored exactly: with no preconditioner SPDSolver
        # takes the band
        self.riesz = SPDSolver(stiffness_with_diag(mesh, 1.0, self.Ml),
                               "Riesz map")
        self.sup = {}
        self.sums = dict.fromkeys(
            ("u_h1_h1", "m_rate_l2", "w_grad_l98", "accel_dual_l2",
             "w_rate_dual_l1", "chi_rate_dual_l2", "m_lap_l2", "xi_l2"), 0.0)
        self.prev = None
        for st in states:
            self.add(st)

    def _dual_sq(self, v) -> float:
        load = self.Ml * v
        return float(load @ self.riesz.solve(load, None, 0.0)[0])

    def add(self, st: State):
        """Take the next state.  Returns the fields of the step it ends
        (None for the first state) as the backward-constant interpolants
        of a refinement study sample them, each with its quadrature
        weights: the element strain rate, the nodal phase rate, the
        element gradient of mu and the nodal w."""
        mesh, mat, tau, Ml, Mv = self.mesh, self.mat, self.tau, self.Ml, self.Mv
        vol = mesh.volumes
        rate = st.velocity(tau)
        mu, gmu = assemble_mu(mesh, mat, st.m, st.chi)
        sup = {
            "u_rate_sup_l2": float(np.sqrt(np.sum(Mv * rate ** 2))),
            "m_sup_h1": _h1(Ml, st.m, grad_field(mesh, st.m), vol),
            "m_sup_abs": float(np.max(np.abs(st.m))),
            "chi_sup_h1": _h1(Ml, st.chi, grad_field(mesh, st.chi), vol),
            "w_sup_l1": float(np.sum(Ml * np.abs(st.w))),
            "mu_sup_h1": _h1(Ml, mu, gmu, vol),
        }
        for key, val in sup.items():
            self.sup[key] = max(self.sup.get(key, val), val)
        prev, self.prev = self.prev, st
        if prev is None:
            return None
        eps_rate = strain(mesh, rate)
        accel = (mat.rho * ((rate - prev.velocity(tau)) / tau)).reshape(
            -1, mesh.dim)
        gw = grad_field(mesh, st.w)
        step = {
            "u_h1_h1": tau * (_h1(Mv, st.u, strain(mesh, st.u), vol) ** 2
                              + _h1(Mv, rate, eps_rate, vol) ** 2),
            "m_rate_l2": np.sum(Ml * (st.m - prev.m) ** 2) / tau,
            "w_grad_l98": tau * float(np.sum(
                vol * np.linalg.norm(gw, axis=1) ** (9.0 / 8.0))),
            "accel_dual_l2": tau * sum(self._dual_sq(a) for a in accel.T),
            "w_rate_dual_l1": tau * float(np.sqrt(self._dual_sq(
                (st.w - prev.w) / tau))),
            "chi_rate_dual_l2": tau * self._dual_sq(
                (st.chi - prev.chi) / tau),
            "m_lap_l2": tau * np.sum(
                Ml * (np.asarray(self.K1 @ st.m) / Ml) ** 2),
            "xi_l2": tau * np.sum(Ml * st.xi ** 2),
        }
        for key, val in step.items():
            self.sums[key] += val
        return {"strain_rate": (eps_rate.reshape(mesh.n_elems, -1), vol),
                "phase_rate": ((st.m - prev.m) / tau, Ml),
                "grad_mu": (gmu, vol), "w": (st.w, Ml)}

    def norms(self) -> dict:
        out = dict(self.sup)
        for key, val in self.sums.items():
            out[key] = float(np.sqrt(val))
        # the two sums that are not squares
        out["w_grad_l98"] = self.sums["w_grad_l98"] ** (8.0 / 9.0)
        out["w_rate_dual_l1"] = self.sums["w_rate_dual_l1"]
        return out


def apriori_monitor(mesh: Mesh, mat: MaterialModel, tau: float,
                    states) -> dict:
    """The ``AprioriMonitor`` norms of ``states``, a run's states in step
    order from step 0 on the uniform step ``tau``; an iterable, such as
    the states of ``driver.steps``, is read one state at a time."""
    return AprioriMonitor(mesh, mat, tau, states).norms()
