"""The snapshot writer process against the in-process snapshot writers."""

import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hydrisim import _snapshot, driver
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


@pytest.fixture
def writers(monkeypatch):
    """The writer processes a test starts, by their ``Popen``."""
    started = []
    real = subprocess.Popen

    def spy(*args, **kwargs):
        proc = real(*args, **kwargs)
        started.append(proc)
        return proc

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def _reference(traj, states, k, ext, scratch):
    """Snapshot ``k`` of a run as the in-process writers write it."""
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
def test_run_snapshots_match_in_process_writers(tmp_path, writers, dim, vtk,
                                                every_n):
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
    # a writer process only when a snapshot falls strictly inside the run
    assert len(writers) == (1 if 0 < every_n < N_STEPS else 0)
    assert all(proc.returncode == 0 for proc in writers)


@pytest.mark.parametrize("fault", [
    StepFailure, InvariantViolation, KeyboardInterrupt],
    ids=lambda fault: fault.__name__)
def test_aborted_run_keeps_every_snapshot_handed_over(tmp_path, writers,
                                                      monkeypatch, fault):
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
    # both writers reaped, the aborted one after writing all it was handed
    assert len(writers) == 2
    assert [proc.returncode for proc in writers] == [0, 0]


@pytest.mark.parametrize("every_n, n_steps", [(1, N_STEPS), (0, 1)],
                         ids=["writer", "in-process"])
def test_unwritable_snapshot_raises(tmp_path, writers, every_n, n_steps):
    (tmp_path / "fields_000001.csv").mkdir()
    cfg = _config(1, tmp_path, every_n=every_n, n_steps=n_steps)
    with pytest.raises(OSError, match="fields_000001.csv"):
        run(cfg)
    assert len(writers) == (1 if every_n else 0)
    assert all(proc.returncode not in (None, 0) for proc in writers)


def test_writer_stopping_early_raises(tmp_path, monkeypatch):
    # a writer killed while the run hands it snapshots: the run fails
    # with OSError instead of returning with snapshots missing
    real_send = _snapshot.Writer.send

    def kill_then_send(self, k, u, scalars):
        if k == 2:
            self.proc.kill()
            self.proc.wait(timeout=60)
        real_send(self, k, u, scalars)

    monkeypatch.setattr(_snapshot.Writer, "send", kill_then_send)
    with pytest.raises(OSError, match="snapshot writer exited with code -9"):
        run(_config(1, tmp_path, every_n=1))


def test_writer_ignores_an_interrupt(tmp_path, monkeypatch):
    # Ctrl-C at a terminal signals the whole process group: the writer
    # keeps writing and leaves it to the run to close the pipe
    real_send = _snapshot.Writer.send
    first = tmp_path / "run" / "fields_000000.csv"

    def interrupt_then_send(self, k, u, scalars):
        if k == 2:
            # the writer has set up its signal handling once it writes
            deadline = time.monotonic() + 60.0
            while not first.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(self.proc.pid, signal.SIGINT)
        real_send(self, k, u, scalars)

    monkeypatch.setattr(_snapshot.Writer, "send", interrupt_then_send)
    cfg = _config(1, tmp_path / "run", every_n=1)
    run(cfg)
    traj, states = run_with_states(cfg)
    for k in range(N_STEPS + 1):
        assert ((tmp_path / "run" / ("fields_%06d.csv" % k)).read_bytes()
                == _reference(traj, states, k, "csv", tmp_path))


@pytest.mark.parametrize("cannot_start", ["Popen", "executable"])
def test_no_writer_process_writes_in_process(tmp_path, monkeypatch,
                                             cannot_start):
    if cannot_start == "Popen":
        def refuse(*args, **kwargs):
            raise OSError("no processes left")
        monkeypatch.setattr(subprocess, "Popen", refuse)
    else:
        monkeypatch.setattr(sys, "executable", "")
    cfg = _config(2, tmp_path / "run", every_n=1, vtk=True)
    run(cfg)
    traj, states = run_with_states(cfg)
    for k in range(N_STEPS + 1):
        for ext in ("csv", "vtk"):
            assert ((tmp_path / "run" / ("fields_%06d.%s" % (k, ext)))
                    .read_bytes() == _reference(traj, states, k, ext,
                                                tmp_path))


def test_writer_file_imports_only_the_standard_library():
    tree = ast.parse(Path(_snapshot.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the writer file"
            names.add(node.module.split(".")[0])
    assert names <= set(sys.stdlib_module_names) | {"__future__"}


def test_writer_file_runs_without_site_packages(tmp_path):
    # the stream a Writer sends, built here from the documented layout
    # and fed to the file run as the writer process is
    tmp_path.joinpath("run").mkdir()
    cfg = _config(2, tmp_path / "run", n_steps=1, vtk=True)
    run(cfg)
    traj, states = run_with_states(cfg)
    mesh, mat, st = traj.mesh, traj.mat, states[1]
    u, *scalars = driver._snapshot_fields(mat, st)
    stream = b"".join(
        [_snapshot._MESH.pack(2, mesh.n_nodes, mesh.n_elems, 1),
         mesh.coords.astype(np.float64).tobytes(),
         mesh.elems.astype(np.int64).tobytes(), _snapshot._STEP.pack(12),
         u.tobytes()] + [vals.tobytes() for vals in scalars])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", _snapshot.__file__, str(tmp_path)],
        input=stream, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    for ext in ("csv", "vtk"):
        assert ((tmp_path / ("fields_000012.%s" % ext)).read_bytes()
                == (tmp_path / "run" / ("fields_000001.%s" % ext))
                .read_bytes())
    # a stream cut inside a message is an error, not a short snapshot
    proc = subprocess.run(
        [sys.executable, "-I", "-S", _snapshot.__file__, str(tmp_path)],
        input=stream[:-8], capture_output=True, timeout=60)
    assert proc.returncode == 1
    assert b"ended inside a message" in proc.stderr
