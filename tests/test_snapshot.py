"""A run's snapshot files against the snapshot writers called directly."""

import subprocess

import pytest

from hydrisim import driver
from hydrisim.driver import (
    RunConfig,
    _field_text,
    _mesh_text,
    _write_snapshot,
    _write_vtk,
    run,
)
from hydrisim.errors import InvariantViolation, StepFailure

from _streams import run_with_states

N_STEPS = 5


def _config(dim, outdir, **kw):
    space = dict(lengths=(1.0,), resolution=(9,)) if dim == 1 else dict(
        lengths=(1.0, 1.0), resolution=(5, 4))
    kw = dict(dict(n_steps=N_STEPS), **kw)
    return RunConfig(dim=dim, **space, tau=1e-3,
                     chi0=lambda c: 0.3 + 0.5 * c[:, 0], theta0=0.1,
                     h_s={"left": 0.5}, outdir=str(outdir), **kw)


def _reference(traj, states, k, ext, scratch):
    """Snapshot ``k`` of a run as the writers write it when called
    directly."""
    path = str(scratch / ("ref." + ext))
    st = states[k]
    text = _mesh_text(traj.mesh)
    if ext == "csv":
        _write_snapshot(traj.mesh, traj.mat, st, path, text)
    else:
        _write_vtk(traj.mesh, traj.mat, st, path,
                   _field_text(traj.mesh, traj.mat, st), text)
    return (scratch / ("ref." + ext)).read_bytes()


def _names(steps, vtk):
    exts = ("csv", "vtk") if vtk else ("csv",)
    return {"fields_%06d.%s" % (k, ext) for k in steps for ext in exts}


@pytest.mark.parametrize("every_n", [0, 1, 3, N_STEPS + 4])
@pytest.mark.parametrize("vtk", [False, True], ids=["csv", "csv+vtk"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_run_snapshots_match_in_process_writers(tmp_path, dim, vtk, every_n):
    out = tmp_path / "run"
    cfg = _config(dim, out, every_n=every_n, vtk=vtk)
    run(cfg)
    traj, states = run_with_states(cfg)
    due = [k for k in range(N_STEPS + 1)
           if k in (0, N_STEPS) or (every_n and k % every_n == 0)]
    assert {p.name for p in out.glob("fields_*")} == _names(due, vtk)
    for k in due:
        for ext in ("csv", "vtk") if vtk else ("csv",):
            got = (out / ("fields_%06d.%s" % (k, ext))).read_bytes()
            assert got == _reference(traj, states, k, ext,
                                     tmp_path), (k, ext)


def test_run_starts_no_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    cfg = _config(2, tmp_path / "run", every_n=1, vtk=True)
    run(cfg)
    traj, states = run_with_states(cfg)
    for k in range(N_STEPS + 1):
        for ext in ("csv", "vtk"):
            assert ((tmp_path / "run" / ("fields_%06d.%s" % (k, ext)))
                    .read_bytes() == _reference(traj, states, k, ext,
                                                tmp_path))


@pytest.mark.parametrize("fault", [
    StepFailure, InvariantViolation, KeyboardInterrupt],
    ids=lambda fault: fault.__name__)
def test_aborted_run_keeps_every_snapshot_handed_over(tmp_path, monkeypatch,
                                                      fault):
    run(_config(2, tmp_path / "clean", every_n=1, vtk=True))
    real = driver.solve_chi_step
    calls = []

    def failing_at_step_3(pr):
        calls.append(pr)
        if len(calls) == 3:
            raise fault("injected at step 3")
        return real(pr)

    monkeypatch.setattr(driver, "solve_chi_step", failing_at_step_3)
    with pytest.raises(fault, match="injected at step 3"):
        run(_config(2, tmp_path / "failed", every_n=1, vtk=True))
    names = _names(range(3), vtk=True)
    assert {p.name for p in (tmp_path / "failed").glob("*")} == names
    for name in names:
        assert ((tmp_path / "failed" / name).read_bytes()
                == (tmp_path / "clean" / name).read_bytes()), name


@pytest.mark.parametrize("every_n, n_steps", [(1, N_STEPS), (0, 1)],
                         ids=["writer", "in-process"])
def test_unwritable_snapshot_raises(tmp_path, every_n, n_steps):
    (tmp_path / "fields_000001.csv").mkdir()
    cfg = _config(1, tmp_path, every_n=every_n, n_steps=n_steps)
    with pytest.raises(OSError, match="fields_000001.csv"):
        run(cfg)
