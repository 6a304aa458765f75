"""Tests of the benchmark's own code: config generation, the correctness
gate and the self-time arithmetic.  Run with ``python3 -m pytest perfbench``."""

import csv
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, TAU, WORKLOADS, inputs_for, make_ini  # noqa: E402

# ---------------------------------------------------------------------------
# generated configs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_ini(name):
    wl = WORKLOADS[name]
    assert make_ini(wl, 7).encode() == make_ini(wl, 7).encode()
    assert make_ini(wl, 7) != make_ini(wl, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ini_parses_to_the_workload(tmp_path, name):
    from hydrisim.cli import parse_config

    wl = WORKLOADS[name]
    path = tmp_path / "run.ini"
    path.write_text(make_ini(wl, 3))
    cfg = parse_config(str(path))
    inp = inputs_for(wl, 3)
    assert cfg.dim == wl.dim and cfg.resolution == wl.resolution
    assert cfg.step_count() == wl.steps and cfg.tau == TAU
    assert cfg.h_s == {"left": inp.influx}
    assert (cfg.cg_tol, cfg.picard_tol) == (1e-12, 1e-10)
    assert (cfg.every_n, cfg.vtk) == (wl.every_n, wl.vtk)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_charged_side_has_unit_measure(name):
    """The gate's hydrogen ledger assumes influx * 1 enters per unit time."""
    from hydrisim.grid import boundary_functional, build_mesh

    wl = WORKLOADS[name]
    mesh = build_mesh(wl.dim, (1.0,) * wl.dim, wl.resolution)
    assert abs(boundary_functional(mesh, 0.5, "left").sum() - 0.5) < 1e-14


# ---------------------------------------------------------------------------
# correctness gate


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    from hydrisim.driver import desk_default_config, run

    out = tmp_path_factory.mktemp("gate")
    run(desk_default_config(resolution=(20,), T=0.01, tau=TAU,
                            chi0=0.01, h_s={"left": 0.5}, outdir=str(out)))
    return str(out / "energy.csv")


def _rewrite(src, dst, row, col, value):
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(col)] = repr(value)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return gate.read_ledger(dst)


def test_gate_passes_a_real_ledger(ledger_path):
    rows = gate.read_ledger(ledger_path)
    assert len(rows) == 11
    assert gate.check_ledger(rows, TAU, 0.5) == []
    assert gate.check_ledger(rows, TAU, 0.4) != []


def test_gate_flags_negative_concentration(ledger_path, tmp_path):
    rows = _rewrite(ledger_path, tmp_path / "e.csv", 4, "min_chi", -1e-13)
    assert any("min_chi" in p for p in gate.check_ledger(rows, TAU, 0.5))


def test_gate_flags_broken_mass_ledger(ledger_path, tmp_path):
    mass = gate.read_ledger(ledger_path)[-1]["mass_chi"]
    rows = _rewrite(ledger_path, tmp_path / "e.csv", 10, "mass_chi",
                    mass + 1e-10)
    assert any("hydrogen ledger" in p for p in gate.check_ledger(rows, TAU, 0.5))


def test_gate_flags_slack_below_bound(ledger_path, tmp_path):
    rows = _rewrite(ledger_path, tmp_path / "e.csv", 3, "slack_nu05", -2e-9)
    assert any("slack_nu05" in p for p in gate.check_ledger(rows, TAU, 0.5))


def test_gate_flags_mechanical_audit_residual(ledger_path, tmp_path):
    rows = _rewrite(ledger_path, tmp_path / "e.csv", 2, "residual_nu0", 1e-6)
    assert any("residual_nu0" in p for p in gate.check_ledger(rows, TAU, 0.5))


def test_reference_check_flags_drift(ledger_path):
    final = gate.read_ledger(ledger_path)[-1]
    assert gate.check_reference(final, dict(final)) == []
    moved = dict(final, thermal=final["thermal"] * (1 + 1e-4) + 1e-8)
    assert gate.check_reference(moved, final) == [
        "final thermal = %.17g, reference %.17g"
        % (moved["thermal"], final["thermal"])]


def test_reference_ledgers_cover_every_workload(ledger_path):
    columns = set(gate.read_ledger(ledger_path)[0])
    for name, wl in WORKLOADS.items():
        ref = gate.load_reference(name)
        assert set(ref) == columns
        assert ref["t"] == pytest.approx(wl.steps * TAU)
        # at least the charged hydrogen is there
        influx = inputs_for(wl, DEFAULT_SEED).influx
        assert ref["mass_chi"] >= wl.steps * TAU * influx


# ---------------------------------------------------------------------------
# spans and self times


def _tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    return [["cli.command_dispatch", 0.0, 10.0, -1],
            ["driver.run", 1.0, 4.0, 0],
            ["grid.strain", 2.0, 3.0, 1],
            ["driver.run", 5.0, 9.0, 0]]


def test_self_times_subtract_direct_children_only():
    assert spans.self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_run_metrics_partition_the_root_span():
    out = spans.run_metrics(_tree(), {"diffusion.picard_iters": 6,
                                      "diffusion.steps": 3})
    assert out["cli.self_s"] == 3.0
    assert out["driver.self_s"] == 6.0
    assert out["grid.strain_s"] == 1.0 and out["grid.strain_calls"] == 1
    assert out["trace.accounted_s"] == 10.0
    assert out["diffusion.picard_per_step"] == 2.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("grid.strain", lambda x: x + 1)
    outer = tr.wrap("driver.run", lambda x: inner(x) * 2,
                    on_result=lambda t, args, res: t.add("n", res))
    assert outer(1) == 4 and outer(2) == 6
    assert tr.spans == [["driver.run", 0.0, 3.0, -1],
                        ["grid.strain", 1.0, 2.0, 0],
                        ["driver.run", 4.0, 7.0, -1],
                        ["grid.strain", 5.0, 6.0, 2]]
    assert tr.counts == {"n": 10}


def test_step_times_run_from_objective_to_objective():
    tree = [["driver.run", 0.0, 1.0, -1],
            ["mech_phase.objective", 0.1, 0.2, 0],
            ["mech_phase.objective", 0.4, 0.5, 0],
            ["energy_audit.write_energy_csv", 0.9, 0.95, 0]]
    assert spans.step_ms(tree) == pytest.approx([300.0, 500.0])


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the harness prints


def _spec():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in _spec()["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_spec_lists_every_per_layer_metric():
    import run

    tree = [["cli.command_dispatch", 0.0, 1.0, -1],
            ["driver.run", 0.1, 0.9, 0],
            ["mech_phase.objective", 0.2, 0.3, 1],
            ["mech_phase.objective", 0.4, 0.5, 1],
            ["energy_audit.write_energy_csv", 0.8, 0.85, 1]]
    traced = [{"spans": tree, "counts": {}, "wall_s": 1.0, "import_s": 0.3,
               "missing": []}]
    untraced = [{"wall_s": 0.9}]
    problems = []
    metrics = run.per_layer(untraced, traced, problems)
    assert problems == []
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.1)
    assert metrics["driver.step_ms_p50"]["value"] == pytest.approx(300.0)
    assert {m["name"]: m["unit"] for m in _spec()["per_layer"]} == {
        k: v["unit"] for k, v in metrics.items()}
