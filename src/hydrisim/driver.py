"""Time loop, run configuration, interpolants and step-refinement studies.

One run advances the staggered stage order per step: displacement/phase
minimization with the previous concentration and enthalpy frozen, then
the concentration solve at the new mechanical state, then the enthalpy
solve with everything updated.  Violated guarantees abort the run; this
code exists to certify them, not to push past them.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import (
    MaterialModel,
    desk_default_material,
    omega_of_theta,
    validate_material,
)
from .diffusion import DiffusionProblem, assemble_mu, solve_chi_step
from .energy_audit import initial_row, ledger_step, slack, write_energy_csv
from .errors import ConfigError, InvariantViolation
from .grid import (
    Mesh,
    boundary_functional,
    build_mesh,
    lumped_mass,
    strain,
    vector_lumped_mass,
)
from .heat import HeatProblem, build_heat_operator, solve_w_step
from .mech_phase import (
    MechPhaseProblem,
    build_operators,
    check_step_size,
    incremental_objective,
    solve_mech_phase_step,
)
from .state import State, Trajectory

log = logging.getLogger(__name__)

SLACK_TOL = 1e-9
OBJECTIVE_TOL = 1e-9


def _package_version() -> str:
    try:
        from importlib.metadata import version
        return version("hydrisim")
    except Exception:
        return "unknown"


@dataclass
class RunConfig:
    """Everything one experiment needs.

    Initial fields accept a constant, a nodal array, or a callable of the
    node coordinates.  Volume sources f and q accept constants or
    callables (coords, t); boundary sources f_s, q_s, h_s are mappings
    side -> constant or callable of t (a bare number applies to every
    side).  n_steps overrides the horizon as an exact step count,
    otherwise T is rounded to the nearest whole number of steps.
    """

    dim: int = 1
    lengths: tuple = (1.0,)
    resolution: tuple = (50,)
    material: MaterialModel | None = None
    T: float = 0.05
    tau: float = 1e-3
    n_steps: int | None = None
    u0: object = 0.0
    v0: object = 0.0
    m0: object = 0.0
    chi0: object = 0.0
    theta0: object = 0.0
    f: object = None
    q: object = None
    f_s: object = None
    q_s: object = None
    h_s: object = None
    cg_tol: float = 1e-12
    picard_tol: float = 1e-10
    picard_max: int = 200
    opt_tol: float | None = None
    opt_max: int = 200
    outdir: str | None = None
    every_n: int = 0
    vtk: bool = False

    def resolved_material(self) -> MaterialModel:
        if self.material is not None:
            return self.material
        return desk_default_material(self.dim)

    def check_solver(self):
        """Tolerances must be finite and positive, iteration caps >= 1."""
        for name in ("cg_tol", "picard_tol", "opt_tol"):
            val = getattr(self, name)
            if val is not None and not (0.0 < val < math.inf):
                raise ConfigError("[solver] %s must be finite and > 0, got %r"
                                  % (name, val))
        for name in ("picard_max", "opt_max"):
            if getattr(self, name) < 1:
                raise ConfigError("[solver] %s must be at least 1, got %r"
                                  % (name, getattr(self, name)))

    def step_count(self) -> int:
        if self.n_steps is not None:
            n = int(self.n_steps)
        else:
            n = int(round(self.T / self.tau))
        if n < 1:
            raise ConfigError("horizon shorter than one step")
        return n


def desk_default_config(**overrides) -> RunConfig:
    """The 1D reference experiment: charging flux on the left boundary."""
    cfg = RunConfig(h_s={"left": 0.5})
    return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# data evaluation helpers


def _nodal_data(mesh: Mesh, given, ncomp: int, name: str, *args):
    """Configured nodal data as a flat (n*ncomp,) array, node-major.

    ``given`` is a constant, an array of n*ncomp values, or a callable of
    the node coordinates and ``args`` (the time, for sources); None means
    zero.
    """
    n = mesh.n_nodes
    if callable(given):
        vals = np.asarray(given(mesh.coords, *args), float)
    else:
        vals = np.asarray(0.0 if given is None else given, float)
    if vals.ndim == 0:
        vals = np.full(n * ncomp, float(vals))
    if vals.size != n * ncomp:
        raise ConfigError("%s: expected %d nodal values, got shape %s"
                          % (name, n * ncomp, vals.shape))
    vals = vals.reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise ConfigError("%s contains non-finite values" % name)
    return vals


def _side_map(mesh: Mesh, given, name: str) -> dict:
    if given is None:
        return {}
    if isinstance(given, dict):
        for side in given:
            if side not in mesh.sides:
                raise ConfigError("%s: unknown side %r (have %s)"
                                  % (name, side, ", ".join(mesh.sides)))
        return dict(given)
    return {side: given for side in mesh.sides}


def _side_value(entry, t: float) -> float:
    return float(entry(t)) if callable(entry) else float(entry)


def _scalar_boundary_load(mesh: Mesh, side_entries: dict, t: float):
    if not side_entries:
        return None
    out = np.zeros(mesh.n_nodes)
    for side, entry in side_entries.items():
        out += boundary_functional(mesh, _side_value(entry, t), side)
    return out


def _vector_boundary_load(mesh: Mesh, side_entries: dict, t: float):
    if not side_entries:
        return None
    d = mesh.dim
    out = np.zeros(mesh.n_nodes * d)
    for side, entry in side_entries.items():
        comps = entry(t) if callable(entry) else entry
        comps = np.atleast_1d(np.asarray(comps, float))
        if comps.size != d:
            raise ConfigError("f_s[%s]: expected %d components" % (side, d))
        for c in range(d):
            if comps[c] != 0.0:
                out[c::d] += comps[c] * boundary_functional(mesh, 1.0, side)
    return out


class _SourceAssembler:
    """Evaluates the configured sources into load vectors at a given time."""

    def __init__(self, mesh: Mesh, cfg: RunConfig):
        self.mesh = mesh
        self.cfg = cfg
        self.hs_map = _side_map(mesh, cfg.h_s, "h_s")
        self.qs_map = _side_map(mesh, cfg.q_s, "q_s")
        self.fs_map = _side_map(mesh, cfg.f_s, "f_s")
        self.Mv = vector_lumped_mass(mesh)

    def at(self, t: float) -> dict:
        mesh, cfg = self.mesh, self.cfg
        return {
            "f": None if cfg.f is None else
            self.Mv * _nodal_data(mesh, cfg.f, mesh.dim, "f", t),
            "f_s": _vector_boundary_load(mesh, self.fs_map, t),
            "h_s": _scalar_boundary_load(mesh, self.hs_map, t),
            "q_s": _scalar_boundary_load(mesh, self.qs_map, t),
            "q": None if cfg.q is None else
            _nodal_data(mesh, cfg.q, 1, "q", t),
        }


# ---------------------------------------------------------------------------
# the run itself


def _initial_state(mesh: Mesh, mat: MaterialModel, cfg: RunConfig) -> State:
    u0 = _nodal_data(mesh, cfg.u0, mesh.dim, "u0")
    v0 = _nodal_data(mesh, cfg.v0, mesh.dim, "v0")
    m0 = _nodal_data(mesh, cfg.m0, 1, "m0")
    chi0 = _nodal_data(mesh, cfg.chi0, 1, "chi0")
    theta0 = _nodal_data(mesh, cfg.theta0, 1, "theta0")
    if np.any(m0 < mat.m_lo) or np.any(m0 > mat.m_hi):
        raise ConfigError("m0 leaves the phase box [%g, %g]"
                          % (mat.m_lo, mat.m_hi))
    if np.any(chi0 < 0.0):
        raise ConfigError("chi0 must be nonnegative")
    if np.any(theta0 < 0.0):
        raise ConfigError("theta0 must be nonnegative")
    w0 = omega_of_theta(mat, m0, theta0)
    mu0, _ = assemble_mu(mesh, mat, m0, chi0)
    return State(k=0, t=0.0, u=u0, u_prev=u0 - cfg.tau * v0, m=m0,
                 chi=chi0, w=np.asarray(w0, float) * np.ones(mesh.n_nodes),
                 mu=mu0, xi=np.zeros(mesh.n_nodes))


def _snapshot_path(outdir: str, k: int, ext: str) -> str:
    return os.path.join(outdir, "fields_%06d.%s" % (k, ext))


# rows formatted per write: bounds the transient float lists and text
_BLOCK_ROWS = 256


def _write_rows(fh, table: np.ndarray, line: str):
    """Write each row of ``table`` (2D, or 1D for one column) as
    ``line % tuple(row)``, a block of rows per ``fh.write``."""
    for start in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_snapshot(mesh: Mesh, mat: MaterialModel, st: State, path: str):
    d = mesh.dim
    cols = ["node"] + ["x", "y"][:d] + ["u%s" % ax for ax in "xy"[:d]]
    cols += ["m", "chi", "mu", "w", "theta"]
    table = np.column_stack([np.arange(mesh.n_nodes), mesh.coords,
                             st.u.reshape(-1, d), st.m, st.chi, st.mu, st.w,
                             st.theta(mat)])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, table, ",".join(["%d"] + ["%.17g"] * (len(cols) - 1))
                    + "\n")


def _write_vtk(mesh: Mesh, mat: MaterialModel, st: State, path: str):
    d = mesh.dim
    n, ne = mesh.n_nodes, mesh.n_elems
    nv = d + 1
    pad = np.zeros((n, 3 - d))
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nhydrisim fields\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % n)
        _write_rows(fh, np.hstack([mesh.coords, pad]), "%.17g %.17g %.17g\n")
        fh.write("CELLS %d %d\n" % (ne, ne * (nv + 1)))
        _write_rows(fh, np.column_stack([np.full(ne, nv), mesh.elems]),
                    " ".join(["%d"] * (nv + 1)) + "\n")
        fh.write("CELL_TYPES %d\n" % ne)
        _write_rows(fh, np.full(ne, 3 if d == 1 else 5), "%d\n")
        fh.write("POINT_DATA %d\n" % n)
        fh.write("VECTORS u double\n")
        _write_rows(fh, np.hstack([st.u.reshape(-1, d), pad]),
                    "%.17g %.17g %.17g\n")
        for name, vals in (("m", st.m), ("chi", st.chi), ("mu", st.mu),
                           ("w", st.w), ("theta", st.theta(mat))):
            fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            _write_rows(fh, vals, "%.17g\n")


def _manifest(cfg: RunConfig, mat: MaterialModel, mesh: Mesh, n: int,
              defaulted, iterations: dict) -> dict:
    def enc(v):
        if callable(v):
            return "<callable>"
        if isinstance(v, np.ndarray):
            return {"array_shape": list(v.shape)}
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if isinstance(v, tuple):
            return list(v)
        return v

    cfg_dict = {f.name: enc(getattr(cfg, f.name))
                for f in dataclasses.fields(cfg) if f.name != "material"}
    mat_dict = {f.name: enc(getattr(mat, f.name))
                for f in dataclasses.fields(mat)}
    return {
        "version": _package_version(),
        "config": cfg_dict,
        "material": mat_dict,
        "defaulted": sorted(defaulted),
        "mesh": {"nodes": mesh.n_nodes, "elements": mesh.n_elems},
        "n_steps": n,
        "iterations": iterations,
    }


def run(config: RunConfig) -> Trajectory:
    """Advance the scheme from t=0 over the configured horizon.

    Returns the full trajectory with one ledger row per step.  Aborts
    with InvariantViolation the moment a guaranteed property fails.
    """
    cfg = config
    mat = cfg.resolved_material()
    validate_material(mat).raise_for_failure()
    if not (cfg.tau > 0.0) or not (cfg.T > 0.0):
        raise ConfigError("T and tau must be positive")
    check_step_size(mat, cfg.tau, cfg.T)
    cfg.check_solver()
    n = cfg.step_count()
    mesh = build_mesh(cfg.dim, cfg.lengths, cfg.resolution)
    opt_tol = cfg.opt_tol if cfg.opt_tol is not None else (
        1e-10 if cfg.dim == 1 else 1e-8)

    state = _initial_state(mesh, mat, cfg)
    rows = [initial_row(mesh, mat, state, cfg.tau)]
    states = [state]
    sources = _SourceAssembler(mesh, cfg)
    ops = build_operators(mesh, mat, cfg.tau)
    heat_op = build_heat_operator(mesh, mat, cfg.tau)

    outdir = cfg.outdir
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output directory %r cannot be created: %s"
                              % (outdir, exc.strerror)) from None

    def maybe_snapshot(st):
        if not outdir:
            return
        due = (cfg.every_n > 0 and st.k % cfg.every_n == 0) or st.k in (0, n)
        if not due:
            return
        _write_snapshot(mesh, mat, st, _snapshot_path(outdir, st.k, "csv"))
        if cfg.vtk:
            _write_vtk(mesh, mat, st, _snapshot_path(outdir, st.k, "vtk"))

    maybe_snapshot(state)
    totals = {"outer": 0, "cg": 0, "prox": 0, "picard_chi": 0, "picard_w": 0,
              "cg_w": 0}
    for k in range(1, n + 1):
        t = k * cfg.tau
        src = sources.at(t)
        pr = MechPhaseProblem(
            mesh=mesh, mat=mat, tau=cfg.tau, u_prev=state.u,
            u_prev2=state.u_prev, m_prev=state.m, chi_prev=state.chi,
            w_prev=state.w, f=src["f"], f_s=src["f_s"], cg_tol=cfg.cg_tol,
            opt_tol=opt_tol, opt_max=cfg.opt_max, ops=ops)
        j_prev = incremental_objective(pr, state.u, state.m)
        sol = solve_mech_phase_step(pr)
        if sol.objective > j_prev + OBJECTIVE_TOL * (1.0 + abs(j_prev)):
            raise InvariantViolation(
                "step %d: incremental objective increased (%.6g -> %.6g)"
                % (k, j_prev, sol.objective))
        if np.any(sol.m < mat.m_lo) or np.any(sol.m > mat.m_hi):
            raise InvariantViolation("step %d: phase left the box" % k)

        dpr = DiffusionProblem(
            mesh=mesh, mat=mat, tau=cfg.tau, m=sol.m, chi_prev=state.chi,
            h_s=src["h_s"], picard_tol=cfg.picard_tol,
            picard_max=cfg.picard_max)
        dsol = solve_chi_step(dpr)

        hpr = HeatProblem(
            mesh=mesh, mat=mat, tau=cfg.tau, u=sol.u, u_prev=state.u,
            m=sol.m, m_prev=state.m, grad_mu=dsol.grad_mu,
            w_prev=state.w, q=src["q"], q_s=src["q_s"], cg_tol=cfg.cg_tol,
            picard_tol=cfg.picard_tol, picard_max=cfg.picard_max, op=heat_op)
        hsol = solve_w_step(hpr)

        new = State(k=k, t=t, u=sol.u, u_prev=state.u, m=sol.m,
                    chi=dsol.chi, w=hsol.w, mu=dsol.mu, xi=sol.xi)
        row = ledger_step(mesh, mat, state, new, cfg.tau, src, hsol.produced)
        gap = slack(rows[-1], row)
        scale = max(1.0, abs(row.energy), abs(row.thermal))
        if gap < -SLACK_TOL * scale:
            raise InvariantViolation(
                "step %d: energy-inequality slack %.3e negative" % (k, gap))
        totals["outer"] += sol.outer_iterations
        totals["cg"] += sol.cg_iterations
        totals["prox"] += sol.prox_iterations
        totals["picard_chi"] += dsol.iterations
        totals["picard_w"] += hsol.iterations
        totals["cg_w"] += hsol.cg_iterations
        rows.append(row)
        states.append(new)
        state = new
        maybe_snapshot(new)

    traj = Trajectory(mesh=mesh, mat=mat, tau=cfg.tau, states=states,
                      rows=rows, meta={"n_steps": n, "T_effective": n * cfg.tau,
                                       "iterations": totals})
    traj.check_uniform()
    if outdir:
        write_energy_csv(traj, os.path.join(outdir, "energy.csv"))

        def is_default(fld):
            val = getattr(cfg, fld.name)
            if isinstance(val, np.ndarray) or callable(val):
                return False
            try:
                return bool(val == fld.default)
            except Exception:
                return False

        defaulted = [f.name for f in dataclasses.fields(cfg)
                     if f.name != "material" and is_default(f)]
        manifest = _manifest(cfg, mat, mesh, n, defaulted, totals)
        with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return traj


# ---------------------------------------------------------------------------
# interpolants


_KINDS = ("affine", "backward", "forward", "velocity-affine")


def interpolant_eval(traj: Trajectory, field_name: str, kind: str,
                     t: float) -> np.ndarray:
    """Evaluate a time interpolant of a nodal field at time t.

    affine joins consecutive states linearly, backward/forward hold the
    newer/older state on each step interval, velocity-affine (u only)
    joins the backward difference quotients, starting from v0.
    """
    if kind not in _KINDS:
        raise ValueError("kind must be one of %s" % (_KINDS,))
    tau, n = traj.tau, traj.n_steps
    T = n * tau
    if t < -1e-12 or t > T * (1.0 + 1e-12) + 1e-300:
        raise ValueError("t=%g outside [0, %g]" % (t, T))
    t = min(max(t, 0.0), T)
    if kind == "velocity-affine":
        if field_name != "u":
            raise ValueError("velocity-affine interpolant is defined for u")
        k = min(max(int(math.ceil(t / tau - 1e-12)), 1), n)
        lam = (t - (k - 1) * tau) / tau
        dk = traj.states[k].velocity(tau)
        dk1 = traj.states[k - 1].velocity(tau)
        return lam * dk + (1.0 - lam) * dk1
    if kind == "backward":
        k = min(max(int(math.ceil(t / tau - 1e-12)), 0), n)
        return getattr(traj.states[k], field_name)
    if kind == "forward":
        k = min(int(math.floor(t / tau + 1e-12)), n - 1) if n else 0
        return getattr(traj.states[k], field_name)
    k = min(max(int(math.ceil(t / tau - 1e-12)), 1), n)
    lam = (t - (k - 1) * tau) / tau
    a = getattr(traj.states[k - 1], field_name)
    b = getattr(traj.states[k], field_name)
    return (1.0 - lam) * a + lam * b


# ---------------------------------------------------------------------------
# refinement studies

REFINE_FIELDS = ("strain_rate", "phase_rate", "grad_mu", "w")


@dataclass
class RefineReport:
    taus: list
    diffs: dict
    ratios: dict
    nu1_defects: list
    nu1_ratios: list
    apriori: list
    fields: tuple = REFINE_FIELDS


def _step_samples(traj: Trajectory) -> dict:
    """Backward-constant-in-time samples of the monitored fields, with
    their spatial quadrature weights."""
    mesh, tau = traj.mesh, traj.tau
    Ml = lumped_mass(mesh)
    vol = mesh.volumes
    out = {}
    sr = [strain(mesh, s.velocity(tau)).reshape(mesh.n_elems, -1)
          for s in traj.states[1:]]
    out["strain_rate"] = (np.stack(sr), vol)
    pr = [(b.m - a.m) / tau
          for a, b in zip(traj.states[:-1], traj.states[1:])]
    out["phase_rate"] = (np.stack(pr), Ml)
    gm = [assemble_mu(mesh, traj.mat, s.m, s.chi)[1]
          for s in traj.states[1:]]
    out["grad_mu"] = (np.stack(gm), vol)
    out["w"] = (np.stack([s.w for s in traj.states[1:]]), Ml)
    return out


def _l2q_diff(coarse, fine, tau_fine: float) -> float:
    """Exact L2(Q) distance of two backward-constant interpolants on
    nested step grids (fine has twice the steps)."""
    vals_c, wts = coarse
    vals_f, _ = fine
    nf = vals_f.shape[0]
    idx = (np.arange(1, nf + 1) + 1) // 2 - 1
    d = vals_c[idx] - vals_f
    if d.ndim == 2:
        sq = np.einsum("kn,n->", d ** 2, wts)
    else:
        sq = np.einsum("ken,e->", d ** 2, wts)
    return float(np.sqrt(tau_fine * sq))


def refine_study(config: RunConfig, levels: int = 3) -> RefineReport:
    """Run the configured experiment at tau, tau/2, ... and compare the
    interpolants level-to-level."""
    from .energy_audit import apriori_monitor, balance_residual

    if levels < 2:
        raise ConfigError("refine_study needs at least 2 levels")
    base_n = config.step_count()
    trajs = []
    for lvl in range(levels):
        cfg = replace(config, tau=config.tau / 2 ** lvl,
                      n_steps=base_n * 2 ** lvl, outdir=None)
        trajs.append(run(cfg))
    samples = [_step_samples(tr) for tr in trajs]
    diffs = {name: [] for name in REFINE_FIELDS}
    for lvl in range(levels - 1):
        for name in REFINE_FIELDS:
            diffs[name].append(_l2q_diff(samples[lvl][name],
                                         samples[lvl + 1][name],
                                         trajs[lvl + 1].tau))
    ratios = {}
    for name in REFINE_FIELDS:
        rr = []
        for a, b in zip(diffs[name][:-1], diffs[name][1:]):
            rr.append(a / b if b > 0.0 else math.inf)
        ratios[name] = rr
    defects = [abs(float(balance_residual(tr, 1.0)[-1])) for tr in trajs]
    nu1_ratios = [a / b if b > 0.0 else math.inf
                  for a, b in zip(defects[:-1], defects[1:])]
    return RefineReport(taus=[tr.tau for tr in trajs], diffs=diffs,
                        ratios=ratios, nu1_defects=defects,
                        nu1_ratios=nu1_ratios,
                        apriori=[apriori_monitor(tr) for tr in trajs])
