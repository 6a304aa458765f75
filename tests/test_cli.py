import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hydrisim import cli
from hydrisim.cli import Ramp, parse_config, parse_ramp
from hydrisim.constitutive import desk_default_material
from hydrisim.driver import prepare
from hydrisim.errors import ConfigError


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# ramp expressions


def test_ramp_parses_mixed_terms():
    r = parse_ramp("0.3 + 0.2*x - t", "xt", "test")
    assert (r.const, r.cx, r.ct) == (0.3, 0.2, -1.0)
    coords = np.array([[0.0], [1.0], [2.0]])
    assert np.allclose(r(coords, 2.0), [-1.7, -1.5, -1.3])


def test_ramp_bare_variable_and_constant():
    r = parse_ramp("x", "xyt", "test")
    assert (r.const, r.cx, r.cy, r.ct) == (0.0, 1.0, 0.0, 0.0)
    assert parse_ramp("-2.5", "x", "test").const == -2.5
    assert parse_ramp("1e-3", "x", "test").is_constant


def test_ramp_rejects_garbage():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_ramp("0.3 ** x", "xt", "test")
    with pytest.raises(ConfigError, match="missing"):
        parse_ramp("1.0 2.0", "xt", "test")
    with pytest.raises(ConfigError, match="not allowed"):
        parse_ramp("0.1*y", "xt", "test")
    with pytest.raises(ConfigError, match="empty"):
        parse_ramp("   ", "xt", "test")


def test_ramp_disallows_time_where_spatial_only():
    with pytest.raises(ConfigError, match="not allowed"):
        parse_ramp("0.5 + 0.1*t", "x", "[initial] m0")


# ---------------------------------------------------------------------------
# config files


def test_minimal_config_uses_desk_defaults(tmp_path):
    path = write_cfg(tmp_path, "[domain]\ndim = 1\n\n[time]\nT = 0.01\n")
    cfg = parse_config(path)
    assert cfg.resolution == (50,)
    assert cfg.lengths == (1.0,)
    assert cfg.tau == 1e-3
    assert cfg.material == desk_default_material(1)
    assert cfg.h_s is None and cfg.f is None


def test_unknown_key_suggests_spelling(tmp_path):
    path = write_cfg(tmp_path, "[material]\nlamda = 0.01\n")
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "[materials]\nk = 10\n")
    with pytest.raises(ConfigError, match="materials"):
        parse_config(path)


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/nonexistent/nowhere.ini")


def test_config_step_bound_checked_by_the_gate(tmp_path):
    # desk material is convex in m, so the threshold collapses to T; the
    # file parses, and the input gate of validate and run rejects it
    path = write_cfg(tmp_path, "[time]\nT = 0.01\ntau = 0.02\n")
    cfg = parse_config(path)
    with pytest.raises(ConfigError, match=r"\(4\.6\)"):
        prepare(cfg)


def test_material_scalar_moduli_and_overrides(tmp_path):
    path = write_cfg(tmp_path, (
        "[material]\nE = 4.0\nD = 1.0\nk = 7.0\nr = 0.02\n"
        "heat_law = linear\nc0 = 1.5\n"))
    cfg = parse_config(path)
    mat = cfg.material
    assert mat.lame == (0.0, 2.0)
    assert mat.visc == (0.0, 0.5)
    assert mat.coupling_k == 7.0
    assert mat.threshold_r == 0.02
    assert mat.heat_law == "linear" and mat.c0 == 1.5


def test_material_rejects_both_modulus_forms(tmp_path):
    path = write_cfg(tmp_path, "[material]\nE = 4.0\nlame = 1.0, 2.0\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(path)


def test_initial_ramps_and_sided_sources(tmp_path):
    path = write_cfg(tmp_path, (
        "[domain]\ndim = 1\nresolution = 11\n\n"
        "[time]\nT = 0.002\ntau = 1e-3\n\n"
        "[initial]\nchi0 = 0.2 + 0.1*x\n\n"
        "[sources]\nh_s = left: 0.5 right: 0.1\nq = 0.3 + 0.2*t\n"))
    cfg = parse_config(path)
    coords = np.array([[0.0], [1.0]])
    assert np.allclose(cfg.chi0(coords), [0.2, 0.3])
    assert cfg.h_s == {"left": 0.5, "right": 0.1}
    assert cfg.q(coords, 1.0) == pytest.approx([0.5, 0.5])


def test_vector_traction_components(tmp_path):
    path = write_cfg(tmp_path, (
        "[domain]\ndim = 2\nresolution = 4, 4\n\n"
        "[time]\nT = 0.002\ntau = 1e-3\n\n"
        "[sources]\nf_s = right: 0.1; -0.2\n"))
    cfg = parse_config(path)
    fs = cfg.f_s["right"]
    assert np.allclose(fs(0.0), [0.1, -0.2])


def test_vector_ramps_lame_and_output_keys(tmp_path):
    path = write_cfg(tmp_path, (
        "[domain]\ndim = 2\nresolution = 4, 3\n\n"
        "[time]\nT = 0.002\ntau = 1e-3\n\n"
        "[material]\nlame = 0.5, 0.25\n\n"
        "[initial]\nu0 = 0.1*x; -0.2*y\nv0 = 1; 2\n\n"
        "[sources]\nf = 0.5*t; x + y\nq_s = 0.2\n\n"
        "[output]\ndir = results\nvtk = yes\n"))
    cfg = parse_config(path)
    coords = np.array([[1.0, 2.0], [0.0, 0.5]])
    assert np.allclose(cfg.u0(coords), [[0.1, -0.4], [0.0, -0.1]])
    assert np.allclose(cfg.v0(coords), [[1.0, 2.0], [1.0, 2.0]])
    assert np.allclose(cfg.f(coords, 2.0), [[1.0, 3.0], [1.0, 0.5]])
    # an untagged boundary value applies to every side of the 2D box
    assert cfg.q_s == dict.fromkeys(("left", "right", "bottom", "top"), 0.2)
    assert cfg.material.lame == (0.5, 0.25)
    assert cfg.outdir == "results" and cfg.vtk is True
    # the gate stores the displacement node-major, components interleaved
    _, _, mesh, state, _ = prepare(cfg)
    assert np.array_equal(state.u.reshape(-1, 2), cfg.u0(mesh.coords))
    # one number is the E form, lam = 0 and mu = E/2
    path = write_cfg(tmp_path, "[material]\nlame = 4.0\n\n[output]\nvtk = 0\n",
                     "one.ini")
    cfg = parse_config(path)
    assert cfg.material.lame == (0.0, 2.0) and cfg.vtk is False


def test_sided_source_bad_side_named(tmp_path):
    # the file parses; the input gate knows the mesh's sides
    path = write_cfg(tmp_path, "[sources]\nh_s = top: 0.5\n")
    with pytest.raises(ConfigError, match="unknown side 'top'"):
        prepare(parse_config(path))


# ---------------------------------------------------------------------------
# commands, via the real argv entry point


def run_main(monkeypatch, *argv):
    monkeypatch.setattr("sys.argv", ["hydrisim", *argv])
    return cli.main()


SMALL = ("[domain]\nresolution = 12\n\n[time]\nT = 0.004\ntau = 1e-3\n\n"
         "[sources]\nh_s = left: 0.5\n\n[output]\nevery_n = 2\n")


def test_simulate_writes_artifacts(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run_main(monkeypatch, "simulate", cfg, "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "completed 4 steps" in text
    assert (out / "energy.csv").exists()
    assert (out / "fields_000000.csv").exists()
    assert (out / "fields_000004.csv").exists()
    assert (out / "run_manifest.json").exists()


@pytest.mark.parametrize("how", ["ini-dir", "flag", "fallback"])
def test_defaulted_log_reports_the_output_directory(tmp_path, monkeypatch,
                                                   caplog, how):
    # only the CLI's own fallback to "out" is a defaulted outdir; an
    # [output] dir or a --out is given, and the None that parse_config
    # leaves for --out to fill is never reported
    monkeypatch.chdir(tmp_path)
    text = SMALL + ("dir = somewhere\n" if how == "ini-dir" else "")
    argv = ["simulate", write_cfg(tmp_path, text)]
    argv += ["--out", "elsewhere"] if how == "flag" else []
    caplog.set_level(logging.INFO, logger="hydrisim.cli")
    assert run_main(monkeypatch, *argv) == 0
    got = [msg for msg in caplog.messages
           if msg.startswith("defaulted outdir")]
    expected = {"ini-dir": "somewhere", "flag": "elsewhere",
                "fallback": "out"}[how]
    assert got == (["defaulted outdir = 'out'"] if how == "fallback"
                   else [])
    assert (tmp_path / expected / "fields_000004.csv").exists()
    # the other keys are still reported
    assert "defaulted vtk = False" in caplog.messages


def test_simulate_reruns_byte_identical(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SMALL)
    run_main(monkeypatch, "simulate", cfg, "--out", str(tmp_path / "a"))
    run_main(monkeypatch, "simulate", cfg, "--out", str(tmp_path / "b"))
    assert ((tmp_path / "a" / "energy.csv").read_bytes()
            == (tmp_path / "b" / "energy.csv").read_bytes())


def _simulate_peak_bytes(tmp_path, steps):
    """The tracemalloc peak of ``hydrisim simulate`` on a 1000-node 1D
    charge of ``steps`` steps, without snapshots between the ends."""
    cfg = write_cfg(tmp_path, "[domain]\nresolution = 1000\n\n[time]\n"
                    "T = %g\ntau = 1e-3\n\n[sources]\nh_s = left: 0.5\n"
                    % (steps * 1e-3), name="mem%d.ini" % steps)
    tracemalloc.start()
    try:
        assert cli.command_dispatch(
            ["simulate", cfg, "--out", str(tmp_path / ("out%d" % steps))]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_steps(tmp_path, capsys):
    # one state of this mesh holds about 48 KB of nodal arrays, so 45
    # more kept states would add about 2.2 MB; 45 more ledger rows add a
    # few tens of KB
    _simulate_peak_bytes(tmp_path, 5)  # first-use imports and caches
    short = _simulate_peak_bytes(tmp_path, 5)
    long = _simulate_peak_bytes(tmp_path, 50)
    assert "completed 50 steps" in capsys.readouterr().out
    assert abs(long - short) < 0.5 * 2 ** 20, (short, long)


def test_module_entry_point_runs(tmp_path):
    cfg = write_cfg(tmp_path, "[time]\nT = 0.01\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "hydrisim", "validate", cfg],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


def test_validate_reports_named_checks(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, "[time]\nT = 0.01\n")
    assert run_main(monkeypatch, "validate", cfg) == 0
    text = capsys.readouterr().out
    assert "(3.1a)" in text
    assert "all checks passed" in text


def test_validate_fails_steep_swelling(tmp_path, monkeypatch, capsys):
    # a1 = 1 makes the swelling curve steep enough to break convexity
    cfg = write_cfg(tmp_path, "[material]\na1 = 1.0\n")
    code = run_main(monkeypatch, "validate", cfg)
    assert code == 2
    assert "(3.1a)" in capsys.readouterr().out


def test_refine_command_prints_ratios(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert run_main(monkeypatch, "refine", cfg, "--levels", "2") == 0
    text = capsys.readouterr().out
    assert "taus:" in text
    assert "grad_mu" in text
    assert "nu=1 defects:" in text
    assert "apriori norm max variation" in text


def test_selftest_passes(monkeypatch, capsys):
    assert run_main(monkeypatch, "selftest") == 0
    text = capsys.readouterr().out
    assert "selftest ok" in text
    assert "suite" in text and "passed" in text


# inputs that parse but make no valid run; validate and simulate both
# reject each with exit 2, simulate before it writes anything
GATED = [
    ("[sources]\nq = -1\n", "q is negative"),
    # the left end loses 1e-3 per step from an empty specimen, so the
    # hydrogen budget, and with it chi >= 0, fails at t = 0.001
    ("[domain]\nresolution = 12\n\n[time]\nT = 0.003\ntau = 0.001\n\n"
     "[sources]\nh_s = left: -1\n", "drains more hydrogen"),
    ("[sources]\nq_s = left: 1 - 1000*t\n", "q_s is negative"),
    ("[initial]\nchi0 = -0.1 + x\n", "chi0"),
    ("[initial]\nm0 = 1.5\n", "m0"),
    ("[initial]\ntheta0 = -1\n", "theta0"),
]
GATED_IDS = ["q-negative", "h_s-drain", "q_s-ramp-negative", "chi0-negative",
             "m0-outside-box", "theta0-negative"]


@pytest.mark.parametrize("command, text, out, match", [
    ("simulate", None, None, "cannot read"),
    # invalid [solver] settings stop in the input gate, so validate sees them
    ("validate", "[solver]\npicard_max = 0\n", None, "picard_max"),
    ("validate", "[solver]\nopt_max = 0\n", None, "opt_max"),
    ("validate", "[solver]\npicard_tol = -1e-10\n", None, "picard_tol"),
    ("validate", "[solver]\ncg_tol = 0\n", None, "cg_tol"),
    # neither a regular file nor a path under one is a usable output dir
    ("simulate", SMALL, "taken", "taken"),
    ("simulate", SMALL, "taken/sub", "taken/sub"),
    ("validate", "[output]\nevery_n = 2.5\n", None, "every_n"),
    ("validate", "[output]\nevery_n = 0.5\n", None, "every_n"),
    ("validate", "[output]\nevery_n = -3\n", None, "every_n"),
    # whole-number keys are rejected, not truncated
    ("validate", "[domain]\ndim = 1.7\n", None, "dim"),
    ("validate", "[domain]\nresolution = 12.9\n", None, "resolution"),
    ("validate", "[domain]\ndim = 3\n", None, "dim must be 1 or 2"),
    ("validate", "[output]\nvtk = maybe\n", None, "vtk: expected a boolean"),
    # vector data needs one component per axis
    ("validate", "[initial]\nu0 = 0.1; 0.2\n", None,
     "u0: expected 1 components"),
    ("validate", "[domain]\ndim = 2\n\n[sources]\nf = 1\n", None,
     "f: expected 2 components"),
    ("validate", "[domain]\ndim = 2\n\n[initial]\nv0 = 1; 2; 3\n", None,
     "[initial] v0: expected 2 components"),
    ("validate", "[domain]\ndim = 2\n\n[sources]\n"
     "f_s = left: 1; 0 right: 1\n", None,
     "[sources] f_s[right]: expected 2 components"),
    ("validate", "[solver]\npicard_max = 2.5\n", None, "picard_max"),
    ("validate", "[solver]\nopt_max = 3.9\n", None, "opt_max"),
    # a step whose tau^2 leaves the floats (rho/tau^2 divided by zero, or
    # tau^2 overflowed) stops in the input gate, not in build_operators
    ("simulate", "[time]\nT = 1e-300\ntau = 1e-300\n", "out", "tau"),
    ("simulate", "[time]\nT = 1e200\ntau = 1e200\n", "out", "tau"),
    # a horizon of more steps than a float holds, not an OverflowError
    ("simulate", "[time]\nT = 1e300\ntau = 1e-10\n", "out", "T/tau"),
    # a spacing whose P1 operators are not finite stops in the input gate,
    # not in the first enthalpy solve
    ("simulate", "[domain]\nlengths = 1e-300\n", "out", "spacing"),
    ("simulate", "[domain]\ndim = 2\nlengths = 1e-300 1e-300\n"
     "resolution = 5 5\n", "out", "spacing"),
    # a heat source that goes negative on some step, or an initial state
    # outside its bounds, fails validate as it fails simulate
    *[(command, text, out, match) for command, out in
      (("validate", None), ("simulate", "out")) for text, match in GATED],
], ids=["missing-file", "picard_max-0", "opt_max-0", "picard_tol-negative",
        "cg_tol-zero", "out-is-file", "out-under-file", "every_n-2.5",
        "every_n-0.5", "every_n-negative", "dim-1.7", "resolution-12.9",
        "dim-3", "vtk-not-boolean", "u0-components", "f-components",
        "v0-components", "f_s-components",
        "picard_max-2.5", "opt_max-3.9", "tau-1e-300", "tau-1e200",
        "T-over-tau-overflow", "lengths-1e-300", "lengths-1e-300-2d",
        *["validate-" + i for i in GATED_IDS],
        *["simulate-" + i for i in GATED_IDS]])
def test_main_maps_config_errors_to_exit_2(tmp_path, monkeypatch, capsys,
                                           command, text, out, match):
    path = "/no/such/file.ini" if text is None else write_cfg(tmp_path, text)
    argv = [command, path]
    if out is not None:
        (tmp_path / "taken").write_text("")
        argv += ["--out", str(tmp_path / out)]
    assert run_main(monkeypatch, *argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert match in err
    # the input gate runs before simulate makes its output directory
    assert not (tmp_path / "out").exists()


@pytest.mark.xfail(strict=True, reason="the hydrogen budget of the input "
                   "gate is global: an outflux on one side passes while "
                   "the other side's influx keeps the total positive")
def test_validate_rejects_one_side_drained_below_zero(tmp_path, monkeypatch):
    # the left end loses 1e-3 per step from an empty specimen while the
    # right end gains 2e-3, so the total stays positive; simulate then
    # stops on step 1 with a negative concentration (exit 4) after
    # writing fields_000000.csv
    cfg = write_cfg(tmp_path, "[domain]\nresolution = 12\n\n[time]\n"
                    "T = 0.003\ntau = 0.001\n\n[sources]\n"
                    "h_s = left: -1 right: 2\n")
    assert run_main(monkeypatch, "validate", cfg) == 2


def test_time_ramped_side_sources_run(tmp_path, monkeypatch):
    # h_s and q_s ramps in t: the hydrogen gained in step k is the influx
    # tau * h_s(k tau) through the left end
    text = ("[domain]\nresolution = 12\n\n[time]\nT = 0.004\ntau = 1e-3\n\n"
            "[sources]\nh_s = left: 0.5 + 2*t\nq_s = right: 0.2 + 1*t\n")
    path = write_cfg(tmp_path, text)
    cfg = parse_config(path)
    traj = cli.run(cfg)
    gain = np.diff([row.mass_chi for row in traj.rows])
    influx = [traj.tau * (0.5 + 2.0 * k * traj.tau)
              for k in range(1, traj.n_steps + 1)]
    assert gain == pytest.approx(influx, abs=1e-12)
    assert run_main(monkeypatch, "simulate", path,
                    "--out", str(tmp_path / "out")) == 0


def test_constant_ramp_collapses_to_float(tmp_path):
    path = write_cfg(tmp_path, "[sources]\nh_s = 0.5\n")
    cfg = parse_config(path)
    # untagged scalar applies to every side of the 1D box
    assert cfg.h_s == {"left": 0.5, "right": 0.5}


def test_ramp_time_decay_callable():
    r = Ramp(const=1.0, ct=-2.0)
    assert r(None, 0.25) == 0.5
    assert not r.is_constant
