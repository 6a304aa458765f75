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
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, _snapshot
from .constitutive import (
    MaterialModel,
    desk_default_material,
    omega_of_theta,
    validate_material,
)
from .diffusion import DiffusionProblem, assemble_mu, solve_chi_step
from .energy_audit import initial_row, ledger_step, slack, write_energy_csv
from .errors import NEG_TOL, ConfigError, InvariantViolation
from .grid import Mesh, boundary_functional, build_mesh, vector_lumped_mass
from .heat import HeatProblem, build_heat_operator, solve_w_step
from .mech_phase import (
    MechPhaseProblem,
    StateTerms,
    build_operators,
    check_step_size,
    incremental_objective,
    solve_mech_phase_step,
)
from .state import State, Trajectory

log = logging.getLogger(__name__)

SLACK_TOL = 1e-9
OBJECTIVE_TOL = 1e-9


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
        """The load vectors at time ``t``; ConfigError when the heat
        source ``q`` or ``q_s`` has a negative entry."""
        mesh, cfg = self.mesh, self.cfg
        loads = {
            "f": None if cfg.f is None else
            self.Mv * _nodal_data(mesh, cfg.f, mesh.dim, "f", t),
            "f_s": _vector_boundary_load(mesh, self.fs_map, t),
            "h_s": _scalar_boundary_load(mesh, self.hs_map, t),
            "q_s": _scalar_boundary_load(mesh, self.qs_map, t),
            "q": None if cfg.q is None else
            _nodal_data(mesh, cfg.q, 1, "q", t),
        }
        for name in ("q", "q_s"):
            if loads[name] is not None and np.min(loads[name]) < 0.0:
                raise ConfigError("%s is negative at t = %g; a heat source "
                                  "must be nonnegative" % (name, t))
        return loads


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


def _mesh_text(mesh: Mesh) -> _snapshot.MeshText:
    """The mesh text of ``mesh``, on memoryviews of its flat coordinates
    and 8-byte element node ids."""
    return _snapshot.MeshText(
        mesh.dim, memoryview(np.ascontiguousarray(mesh.coords, float).ravel()),
        memoryview(np.ascontiguousarray(mesh.elems, np.int64).ravel()))


def _field_text(mesh: Mesh, mat: MaterialModel, st: State) -> list:
    """Every nodal value of ``st`` formatted once: ``_snapshot.field_text``
    on memoryviews of u and the fields of ``_snapshot.SCALARS`` as flat
    contiguous float64 arrays, so no value list is built."""
    u, *scalars = (memoryview(np.ascontiguousarray(vals, float).ravel())
                   for vals in (st.u, st.m, st.chi, st.mu, st.w,
                                st.theta(mat)))
    return _snapshot.field_text(mesh.dim, u, scalars)


def _write_snapshot(mesh: Mesh, mat: MaterialModel, st: State, path: str,
                    text: _snapshot.MeshText) -> list:
    """Write the nodal fields of ``st`` as CSV: the node index, then
    ``%.17g`` coordinates, displacement and scalars, one row per node.

    Each value is formatted once per snapshot; the strings are returned
    for ``_write_vtk`` to reuse.  ``text`` is the run's mesh text
    (``_mesh_text``), so the ``node,x,y`` columns are formatted once per
    run."""
    fields = _field_text(mesh, mat, st)
    _snapshot.write_csv(path, mesh.dim, fields, text)
    return fields


def _write_vtk(mesh: Mesh, mat: MaterialModel, st: State, path: str,
               fields: list, text: _snapshot.MeshText):
    """Write the nodal fields of ``st`` as a legacy ASCII VTK
    unstructured grid with the same ``%.17g`` values as the CSV.

    ``fields`` are the strings ``_write_snapshot`` returned for the same
    state, so no value is formatted a second time, and ``text`` is the
    run's mesh text."""
    _snapshot.write_vtk(path, fields, text)


class _Snapshots:
    """The due snapshots of one run: step 0, step n and, with ``every_n``
    > 0, every multiple of it.  Each is written in the run's process as
    its state arrives, so a run that fails or is interrupted leaves every
    snapshot before the failing step on disk.
    """

    def __init__(self, mesh: Mesh, mat: MaterialModel, cfg: RunConfig,
                 n: int):
        self.mesh, self.mat, self.cfg, self.n = mesh, mat, cfg, n
        self.text = _mesh_text(mesh)

    def take(self, st: State):
        cfg, k = self.cfg, st.k
        due = (cfg.every_n > 0 and k % cfg.every_n == 0) or k in (0, self.n)
        if not (cfg.outdir and due):
            return
        fields = _write_snapshot(
            self.mesh, self.mat, st,
            _snapshot.snapshot_path(cfg.outdir, k, "csv"), self.text)
        if cfg.vtk:
            _write_vtk(self.mesh, self.mat, st,
                       _snapshot.snapshot_path(cfg.outdir, k, "vtk"), fields,
                       self.text)


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
        "version": __version__,
        "config": cfg_dict,
        "material": mat_dict,
        "defaulted": sorted(defaulted),
        "mesh": {"nodes": mesh.n_nodes, "elements": mesh.n_elems},
        "n_steps": n,
        "iterations": iterations,
    }


def prepare(config: RunConfig) -> tuple:
    """Check every input of a run, in order: the material, T and tau, the
    step size, the solver settings, the step count, the built mesh's
    spacing, the initial state, the side names and the sources of every
    step at k*tau, k = 1..n, with the hydrogen they leave: step k moves
    the lumped mass sum(Ml chi) by tau sum(h_s(k tau)) to round-off, so a
    total below -NEG_TOL sum(Ml) puts a node below the chi >= 0 invariant.
    Raises ConfigError (exit 2) at the first that fails.  Returns the
    material, step count, mesh, initial state and source assembler that
    ``steps`` starts from; ``hydrisim validate`` calls this too, so it
    passes exactly what a run accepts up to step 1.
    """
    cfg = config
    mat = cfg.resolved_material()
    validate_material(mat).raise_for_failure()
    if not (0.0 < cfg.tau and 0.0 < cfg.T and cfg.T / cfg.tau < math.inf):
        raise ConfigError("T and tau must be positive with a finite T/tau")
    check_step_size(mat, cfg.tau, cfg.T)
    for name in ("cg_tol", "picard_tol", "opt_tol"):
        val = getattr(cfg, name)
        if val is not None and not (0.0 < val < math.inf):
            raise ConfigError("[solver] %s must be finite and > 0, got %r"
                              % (name, val))
    for name in ("picard_max", "opt_max"):
        if getattr(cfg, name) < 1:
            raise ConfigError("[solver] %s must be at least 1, got %r"
                              % (name, getattr(cfg, name)))
    n = cfg.step_count()
    # the mesh's own unit stiffness and lumped mass, cached for the
    # operators; a spacing near the ends of the floats (lengths = 1e-300
    # overflows 1/h^2) leaves them non-finite
    with np.errstate(all="ignore"):
        mesh = build_mesh(cfg.dim, cfg.lengths, cfg.resolution)
        mass = mesh.lumped
        ok = (np.isfinite(mesh._stiff_csr[2]).all() and (mass > 0).all()
              and np.isfinite(1.0 / mass).all())
    if not ok:
        raise ConfigError("mesh spacing %s gives a non-finite P1 stiffness "
                          "or lumped mass; rescale the domain lengths"
                          % ", ".join("%g" % (v / (k - 1)) for v, k
                                      in zip(mesh.lengths, mesh.shape)))
    state = _initial_state(mesh, mat, cfg)
    sources = _SourceAssembler(mesh, cfg)
    hydrogen = float(np.sum(mass * state.chi))
    floor = -NEG_TOL * float(np.sum(mass))
    for k in range(1, n + 1):
        h_s = sources.at(k * cfg.tau)["h_s"]
        if h_s is not None:
            hydrogen += cfg.tau * float(np.sum(h_s))
            if hydrogen < floor:
                raise ConfigError(
                    "h_s drains more hydrogen than the specimen holds: the "
                    "lumped hydrogen mass would be %.3e at t = %g, so chi "
                    "cannot stay nonnegative" % (hydrogen, k * cfg.tau))
    return mat, n, mesh, state, sources


def steps(config: RunConfig):
    """Advance the scheme from t=0 over the configured horizon, yielding
    the initial state and then each step's new one as ``(state, terms,
    row, iterations)``: the ``State``, its ``StateTerms``, its ledger row
    and the iteration counts of its step (none for the initial state).

    ``prepare`` checks the inputs first.  Between yields only the latest
    state and what its successor needs are held, so memory does not grow
    with the step count.  Aborts with InvariantViolation, naming the
    step, the moment a guaranteed property fails.
    """
    cfg = config
    mat, n, mesh, state, sources = prepare(cfg)
    opt_tol = cfg.opt_tol if cfg.opt_tol is not None else (
        1e-10 if cfg.dim == 1 else 1e-8)

    row, terms = initial_row(mesh, mat, state, cfg.tau)
    ops = build_operators(mesh, mat, cfg.tau)
    heat_op = build_heat_operator(mesh, mat, cfg.tau)
    yield state, terms, row, {}
    for k in range(1, n + 1):
        try:
            t = k * cfg.tau
            src = sources.at(t)
            pr = MechPhaseProblem(
                mesh=mesh, mat=mat, tau=cfg.tau, prev=terms, f=src["f"],
                f_s=src["f_s"], cg_tol=cfg.cg_tol, opt_tol=opt_tol,
                opt_max=cfg.opt_max, ops=ops)
            j_prev = incremental_objective(pr, state.u, state.m)
            sol = solve_mech_phase_step(pr)
            if sol.objective > j_prev + OBJECTIVE_TOL * (1.0 + abs(j_prev)):
                raise InvariantViolation(
                    "incremental objective increased (%.6g -> %.6g)"
                    % (j_prev, sol.objective))
            if np.any(sol.m < mat.m_lo) or np.any(sol.m > mat.m_hi):
                raise InvariantViolation("phase left the box")

            dpr = DiffusionProblem(
                mesh=mesh, mat=mat, tau=cfg.tau, m=sol.m,
                chi_prev=state.chi, h_s=src["h_s"],
                picard_tol=cfg.picard_tol, picard_max=cfg.picard_max,
                cg_tol=cfg.cg_tol)
            dsol = solve_chi_step(dpr)

            hpr = HeatProblem(
                mesh=mesh, mat=mat, tau=cfg.tau, prev=terms,
                eps_new=sol.strain, m=sol.m, grad_mu=dsol.grad_mu,
                q=src["q"], q_s=src["q_s"],
                cg_tol=cfg.cg_tol, picard_tol=cfg.picard_tol,
                picard_max=cfg.picard_max, op=heat_op)
            hsol = solve_w_step(hpr)

            new = State(k=k, t=t, u=sol.u, u_prev=state.u, m=sol.m,
                        chi=dsol.chi, w=hsol.w, mu=dsol.mu, xi=sol.xi)
            # the stage arrays, not copies: the new state's terms start
            # from the strain the step returned
            new_terms = StateTerms(mesh, mat, new, sol.strain)
            new_row = ledger_step(
                mesh, mat, terms, new_terms, cfg.tau, src, hsol.produced,
                grad_mu=dsol.grad_mu, strain_rate=hsol.strain_rate)
            gap = slack(row, new_row)
            scale = max(1.0, abs(new_row.energy), abs(new_row.thermal))
            if gap < -SLACK_TOL * scale:
                raise InvariantViolation(
                    "energy-inequality slack %.3e negative" % gap)
        except InvariantViolation as exc:
            # neither the stages' checks nor the ones above know the step
            raise InvariantViolation(str(exc), step=k) from exc
        state, terms, row = new, new_terms, new_row
        # the problems hold the previous state's terms; dropping them
        # here frees those arrays before the next step's stages run
        del pr, hpr
        yield new, new_terms, new_row, {
            "outer": sol.outer_iterations, "cg": sol.cg_iterations,
            "prox": sol.prox_iterations, "picard_chi": dsol.iterations,
            "cg_chi": dsol.cg_iterations, "chi_exact": dsol.exact_solves,
            "picard_w": hsol.iterations, "cg_w": hsol.cg_iterations}


def run(config: RunConfig) -> Trajectory:
    """Advance the scheme over the configured horizon through ``steps``
    and return the trajectory: one ledger row per step and the iteration
    totals.  Each due snapshot is written in this process as its state
    arrives, and each state is dropped after that; a caller that reads
    the states iterates ``steps`` itself.  Nothing is written before
    ``prepare`` has passed the inputs.
    """
    cfg = config
    stream = steps(cfg)
    step = next(stream)
    # the initial state's terms carry the run's mesh and material
    mesh, mat, n = step[1].mesh, step[1].mat, cfg.step_count()

    outdir = cfg.outdir
    if outdir:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output directory %r cannot be created: %s"
                              % (outdir, exc.strerror)) from None
    snaps = _Snapshots(mesh, mat, cfg, n)
    rows, totals = [], Counter()
    while step is not None:
        state, _, row, iterations = step
        rows.append(row)
        totals.update(iterations)
        snaps.take(state)
        step = next(stream, None)

    traj = Trajectory(mesh=mesh, mat=mat, tau=cfg.tau, rows=rows,
                      meta={"iterations": dict(totals)})
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
        manifest = _manifest(cfg, mat, mesh, n, defaulted,
                             traj.meta["iterations"])
        with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return traj


# ---------------------------------------------------------------------------
# interpolants


_KINDS = ("affine", "backward", "forward", "velocity-affine")


def interpolant_eval(states, tau: float, field_name: str, kind: str,
                     t: float) -> np.ndarray:
    """Evaluate a time interpolant of a nodal field at time t.

    ``states`` are a run's states in step order from step 0, for example
    collected from ``steps``, on the uniform step ``tau``.  affine joins
    consecutive states linearly, backward/forward hold the newer/older
    state on each step interval, velocity-affine (u only) joins the
    backward difference quotients, starting from v0.
    """
    if kind not in _KINDS:
        raise ValueError("kind must be one of %s" % (_KINDS,))
    n = len(states) - 1
    T = n * tau
    if t < -1e-12 or t > T * (1.0 + 1e-12) + 1e-300:
        raise ValueError("t=%g outside [0, %g]" % (t, T))
    t = min(max(t, 0.0), T)
    if kind == "backward":
        k = min(max(int(math.ceil(t / tau - 1e-12)), 0), n)
        return getattr(states[k], field_name)
    if kind == "forward":
        k = min(int(math.floor(t / tau + 1e-12)), n - 1) if n else 0
        return getattr(states[k], field_name)
    k = min(max(int(math.ceil(t / tau - 1e-12)), 1), n)
    lam = (t - (k - 1) * tau) / tau
    if kind == "affine":
        a = getattr(states[k - 1], field_name)
        b = getattr(states[k], field_name)
    elif field_name != "u":
        raise ValueError("velocity-affine interpolant is defined for u")
    else:
        a, b = states[k - 1].velocity(tau), states[k].velocity(tau)
    return (1.0 - lam) * a + lam * b


# ---------------------------------------------------------------------------
# refinement studies

# the step fields that AprioriMonitor.add returns
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


def _ratios(vals: list) -> list:
    return [a / b if b > 0.0 else math.inf
            for a, b in zip(vals[:-1], vals[1:])]


def refine_study(config: RunConfig, levels: int = 3) -> RefineReport:
    """Run the configured experiment at tau, tau/2, ... and compare the
    backward-constant interpolants of ``REFINE_FIELDS`` level to level
    in L2(Q).

    The levels advance in lockstep, level l + 1 taking two steps per step
    of level l, and every distance, a-priori norm (``AprioriMonitor``)
    and nu=1 defect is summed as the states arrive; so the study holds a
    few states per level, whatever the step count.
    """
    from .energy_audit import AprioriMonitor, step_residual

    if levels < 2:
        raise ConfigError("refine_study needs at least 2 levels")
    cfg = replace(config, outdir=None)
    taus = [cfg.tau / 2 ** lvl for lvl in range(levels)]
    streams, monitors, rows = [], [], []
    for lvl, tau in enumerate(taus):
        # level 0 passes prepare first, so its inputs are checked before
        # the step count of the finer levels is derived from them
        streams.append(steps(replace(
            cfg, tau=tau, n_steps=cfg.step_count() * 2 ** lvl) if lvl else cfg))
        state, terms, row, _ = next(streams[lvl])
        monitors.append(AprioriMonitor(terms.mesh, terms.mat, tau, [state]))
        rows.append(row)
    sq = {name: [0.0] * (levels - 1) for name in REFINE_FIELDS}
    defects = [0.0] * levels
    samples = [None] * levels
    for j in range(cfg.step_count() * 2 ** (levels - 1)):
        for lvl in range(levels):
            # a step of level lvl spans 2 ** (levels - 1 - lvl) finest steps
            if j % 2 ** (levels - 1 - lvl):
                continue
            state, _, row, _ = next(streams[lvl])
            defects[lvl] += step_residual(rows[lvl], row, 1.0)
            rows[lvl] = row
            samples[lvl] = monitors[lvl].add(state)
            for name in REFINE_FIELDS if lvl else ():
                (coarse, _), (fine, wts) = (samples[lvl - 1][name],
                                            samples[lvl][name])
                sq[name][lvl - 1] += float(np.einsum(
                    "en,e->", ((coarse - fine) ** 2).reshape(wts.size, -1),
                    wts))
    diffs = {name: [math.sqrt(tau * s) for tau, s in zip(taus[1:], sq[name])]
             for name in REFINE_FIELDS}
    defects = [abs(d) for d in defects]
    return RefineReport(
        taus=taus, diffs=diffs,
        ratios={name: _ratios(diffs[name]) for name in REFINE_FIELDS},
        nu1_defects=defects, nu1_ratios=_ratios(defects),
        apriori=[monitor.norms() for monitor in monitors])
