"""Property tests drawn by hypothesis; skipped when it is not installed."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hydrisim import cli  # noqa: E402
from hydrisim.constitutive import desk_default_material  # noqa: E402
from hydrisim.errors import HydrisimError  # noqa: E402
from hydrisim.driver import (  # noqa: E402
    RunConfig,
    _mesh_text,
    _Snapshots,
    _write_snapshot,
    _write_vtk,
)
from hydrisim.grid import SIDES_2D, build_mesh  # noqa: E402
from hydrisim.heat import build_heat_operator  # noqa: E402
from hydrisim.mech_phase import (  # noqa: E402
    FISTA_MAX,
    MechPhaseProblem,
    StateTerms,
    _m_residual,
    _m_smooth_grad,
    _solve_m_block,
    tau_max,
)
from hydrisim.state import State  # noqa: E402

from _oracles import reference_snapshot, reference_vtk  # noqa: E402


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    nx=st.integers(2, 14), ny=st.integers(2, 14),
    lx=st.floats(0.1, 10.0), ly=st.floats(0.1, 10.0),
    k0=st.floats(1e-3, 1e3), tau=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2 ** 16))
def test_enthalpy_solve_on_any_tensor_grid(nx, ny, lx, ly, k0, tau, seed):
    # the tensor-grid preconditioner is exact up to the 4 corner masses,
    # whatever the grid shape, aspect ratio, conductivity and step size
    mesh = build_mesh(2, (lx, ly), (nx, ny))
    mat = dataclasses.replace(desk_default_material(2), K0=k0)
    op = build_heat_operator(mesh, mat, tau)
    rng = np.random.default_rng(seed)
    b = rng.normal(size=mesh.n_nodes)
    x, iters = op.solve(b, np.zeros_like(b), 1e-12)
    assert 1 <= iters <= 5
    # CG's updated residual meets the 1e-12 target; from a zero start the
    # true one carries round-off of order eps |A| |x| on top, and the error |x - x_ref| is
    # the condition number times that backward error
    A = op.A.toarray()
    backward = np.linalg.norm(A @ x - b) / (
        np.linalg.norm(A, 2) * np.linalg.norm(x) + np.linalg.norm(b))
    assert backward <= 1e-12
    ref = spla.spsolve(op.A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 10.0 * np.linalg.cond(A) * backward \
        * np.linalg.norm(ref) + 1e-15 * np.linalg.norm(ref)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    dim=st.integers(1, 2), nx=st.integers(2, 8), ny=st.integers(2, 8),
    r=st.floats(0.0, 5.0), k=st.floats(0.0, 50.0), a1=st.floats(0.0, 3.0),
    double_well=st.sampled_from([0.0, 0.5, 5.0]),
    tau_frac=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 16))
def test_phase_block_meets_its_residual(dim, nx, ny, r, k, a1, double_well,
                                        tau_frac, seed):
    # whatever the mesh, threshold, chemical driving, double well and
    # step, the prox block returns an m whose first-order residual,
    # recomputed from scratch, meets the tolerance it was given
    res = (nx,) if dim == 1 else (nx, ny)
    mesh = build_mesh(dim, (1.0,) * dim, res)
    n = mesh.n_nodes
    mat = dataclasses.replace(desk_default_material(dim), threshold_r=r,
                              coupling_k=k, a1=a1, double_well=double_well)
    tau = tau_frac * tau_max(mat, 0.1)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.1, dim * n)
    m_prev = rng.uniform(0.0, 1.0, n)
    prev = State(k=0, t=0.0, u=u, u_prev=u, m=m_prev,
                 chi=rng.uniform(0.0, 1.5, n), w=rng.uniform(0.0, 1.0, n),
                 mu=np.zeros(n), xi=np.zeros(n))
    pr = MechPhaseProblem(mesh=mesh, mat=mat, tau=tau,
                          prev=StateTerms(mesh, mat, prev))
    ops = pr.operators()
    # relative to the gradient scale: the metric applied to a unit m, in
    # the lumped dual norm the residual is measured in
    tol = 1e-9 * (1.0 + float(np.sqrt(np.sum(ops.lipschitz ** 2
                                             / ops.Mlump))))
    m, _, _, iters = _solve_m_block(pr, ops, u, m_prev, tol, FISTA_MAX)
    assert iters < FISTA_MAX
    assert np.all((m >= mat.m_lo) & (m <= mat.m_hi))
    g = _m_smooth_grad(pr, ops, m, ops.A_m.toarray() @ m, ops.B.T @ u)
    resid = _m_residual(g, m, m_prev, ops.Mlump, r, mat.m_lo, mat.m_hi)
    assert np.sqrt(np.sum(resid ** 2 / ops.Mlump)) <= tol * (1.0 + 1e-4)


# values whose %.17g text is easy to get wrong: signed zero, subnormals,
# the extremes of the double range and whole numbers stored as floats
_AWKWARD = (-0.0, 0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e308,
            -1e308, 3.0, -17.0, 2.0 ** 53, 1e16)


def _awkward_field(rng, size, specials):
    vals = rng.normal(size=size) * 10.0 ** rng.integers(-320, 308, size=size)
    vals = np.where(rng.random(size) < 0.2,
                    rng.integers(-10 ** 6, 10 ** 6, size=size), vals)
    vals[rng.integers(0, size, len(specials))] = specials
    return vals


# node counts on both sides of the 256-row block: 256 fills its blocks
# exactly, 257 leaves one row in the last
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(
    resolution=st.one_of(st.tuples(st.integers(200, 600)),
                         st.tuples(st.integers(8, 30), st.integers(8, 30))),
    lengths=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    specials=st.lists(st.sampled_from(_AWKWARD), min_size=1, max_size=6),
    seed=st.integers(0, 2 ** 16))
@hypothesis.example(resolution=(256,), lengths=(1.0, 1.0), specials=[-0.0],
                    seed=0)
@hypothesis.example(resolution=(257,), lengths=(1.0, 1.0), specials=[1e308],
                    seed=1)
def test_snapshot_writers_match_oracles(tmp_path_factory, resolution, lengths,
                                        specials, seed):
    dim = len(resolution)
    mesh = build_mesh(dim, lengths[:dim], resolution)
    mat = desk_default_material(dim)
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    u, m, chi, mu, w = (_awkward_field(rng, size, specials)
                        for size in (n * dim, n, n, n, n))
    state = State(k=0, t=0.0, u=u, u_prev=u, m=m, chi=chi, w=np.abs(w),
                  mu=mu, xi=np.zeros(n))
    out = tmp_path_factory.mktemp("snapshot")
    # theta of an awkward w and m can overflow or be NaN: the writers and
    # the oracles format the same values
    with np.errstate(over="ignore", invalid="ignore"):
        text = _mesh_text(mesh)
        fields = _write_snapshot(mesh, mat, state, str(out / "f.csv"), text)
        _write_vtk(mesh, mat, state, str(out / "f.vtk"), fields, text)
        assert (out / "f.csv").read_text() == reference_snapshot(mesh, mat,
                                                                 state)
        assert (out / "f.vtk").read_text() == reference_vtk(mesh, mat, state)
        # a run's snapshot of the same state, through the path ``run``
        # takes, writes the same bytes
        cfg = RunConfig(dim=dim, outdir=str(out), every_n=1, vtk=True)
        snaps = _Snapshots(mesh, mat, cfg, n=1)
        snaps.take(dataclasses.replace(state, k=seed))
    for ext in ("csv", "vtk"):
        assert ((out / ("fields_%06d.%s" % (seed, ext))).read_bytes()
                == (out / ("f." + ext)).read_bytes())


def _exit_code(argv) -> int:
    """``hydrisim`` with ``argv``, mapped to its exit code as ``cli.main``
    maps it; any other exception escapes and fails the test."""
    try:
        return cli.command_dispatch(argv)
    except HydrisimError as exc:
        return exc.exit_code


@st.composite
def _ramp(draw):
    """A constant or a t-ramp of either sign; the slope can flip the sign
    within the few steps drawn."""
    const = draw(st.sampled_from([0.0, 0.3, -0.2, 1.0, -1.0]))
    slope = draw(st.sampled_from([0.0, 0.0, 50.0, -50.0, -1000.0]))
    return "%g %+g*t" % (const, slope) if slope else "%g" % const


@st.composite
def _run_ini(draw):
    shape = draw(st.one_of(st.tuples(st.integers(2, 12)),
                           st.tuples(st.integers(2, 12), st.integers(2, 12)),
                           st.just((3, 40))))
    dim = len(shape)
    # the desk material is convex in m, so check_step_size bounds tau by
    # T: a ratio T/tau below 1 is rejected, one just under 1 within its
    # rounding allowance passes with one step, and 2-3 steps pass
    tau = draw(st.sampled_from([1e-4, 1e-3, 5e-3]))
    ratio = draw(st.sampled_from([2.0, 3.0, 2.5, 1.0 - 1e-13, 0.99]))
    lines = ["[domain]", "dim = %d" % dim,
             "resolution = %s" % " ".join(map(str, shape)),
             "[time]", "T = %r" % (ratio * tau), "tau = %r" % tau,
             "[initial]",
             "chi0 = %s" % draw(st.sampled_from(["0", "0.5", "0.2 + 0.3*x",
                                                 "1.0"])),
             "[sources]"]
    for key in ("h_s", "q_s", "f_s"):
        tags = []
        for side in SIDES_2D[:2 * dim]:
            if draw(st.booleans()):
                val = draw(_ramp())
                if key == "f_s":
                    val = "; ".join([val] + [draw(_ramp())
                                             for _ in range(dim - 1)])
                tags.append("%s: %s" % (side, val))
        if tags:
            lines.append("%s = %s" % (key, " ".join(tags)))
    if draw(st.booleans()):
        lines.append("q = %s" % draw(_ramp()))
    return "\n".join(lines) + "\n"


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(text=_run_ini())
def test_validate_predicts_simulate(tmp_path_factory, text):
    # the exit-code contract of the input gate: validate passes exactly
    # the configs simulate accepts up to step 1, so a config it rejects
    # is rejected by simulate too, and one it passes either runs or stops
    # in a solver (3) or an invariant (4), never on bad input (2)
    tmp = tmp_path_factory.mktemp("gate")
    path = tmp / "run.ini"
    path.write_text(text)
    validated = _exit_code(["validate", str(path)])
    assert validated in (0, 2)
    simulated = _exit_code(["simulate", str(path), "--out", str(tmp / "out")])
    assert simulated in ((2,) if validated == 2 else (0, 3, 4))
