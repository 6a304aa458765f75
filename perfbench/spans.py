"""Spans recorded at hydrisim's module boundaries, from outside the package.

``install`` replaces names as they are bound in the modules that call
them (the stage and ledger functions, snapshot writers and ``build_*``
calls in ``hydrisim.driver``; the grid/constitutive helpers and scipy's
``spsolve`` in each stage module) with wrappers that record a span
``[name, start, end, parent]``.  Spans stay in memory until the run ends.
Iteration counts come only from the public solution objects the stage
functions return.
"""

from __future__ import annotations

import os
import time
import types

GRID_HELPERS = ("strain", "elem_mean", "stiffness_with_diag",
                "grad_stiffness_vector", "strain_adjoint")
STAGE_MODULES = ("mech_phase", "diffusion", "heat", "energy_audit")

# self-time metric -> the span names whose self time it sums.  Together
# they cover every span, so they add up to the root span's duration.
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.command_dispatch",),
    "cli.parse_config_s": ("cli.parse_config",),
    "driver.self_s": ("driver.run",),
    "driver.output_s": ("driver.write_snapshot", "driver.write_vtk",
                        "energy_audit.write_energy_csv"),
    "constitutive.validate_material_s": ("constitutive.validate_material",),
    "constitutive.transport_coeffs_s": ("constitutive.transport_coeffs",),
    "grid.build_mesh_s": ("grid.build_mesh",),
    "mech_phase.build_operators_s": ("mech_phase.build_operators",),
    "mech_phase.objective_s": ("mech_phase.objective",),
    "mech_phase.solve_s": ("mech_phase.solve",),
    "diffusion.solve_s": ("diffusion.solve",),
    "diffusion.spsolve_s": ("diffusion.spsolve",),
    "heat.solve_s": ("heat.solve",),
    "heat.dissipation_rhs_s": ("heat.dissipation_rhs",),
    "energy_audit.ledger_s": ("energy_audit.ledger_step",
                              "energy_audit.initial_row"),
}
SELF_TIME_METRICS.update({"grid.%s_s" % fn: ("grid." + fn,)
                          for fn in GRID_HELPERS})
# reported beside the partition above: the ledger CSV alone
EXTRA_TIME_METRICS = {"energy_audit.csv_s": ("energy_audit.write_energy_csv",)}
CALL_METRICS = {
    "grid.strain_calls": "grid.strain",
    "grid.elem_mean_calls": "grid.elem_mean",
    "constitutive.transport_coeffs_calls": "constitutive.transport_coeffs",
    "diffusion.spsolve_calls": "diffusion.spsolve",
}


class Tracer:
    """Nested spans of one single-threaded run, plus exact counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, key: str, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced


def _count_mech(tr, _args, sol):
    tr.add("mech_phase.outer_iters", sol.outer_iterations)
    tr.add("mech_phase.cg_iters", sol.cg_iterations)
    tr.add("mech_phase.prox_iters", sol.prox_iterations)


def _count_diffusion(tr, _args, sol):
    tr.add("diffusion.picard_iters", sol.iterations)
    tr.add("diffusion.steps", 1)


def _count_heat(tr, _args, sol):
    tr.add("heat.picard_iters", sol.iterations)


def _count_bytes(path_arg):
    def hook(tr, args, _result):
        tr.add("driver.output_bytes", os.path.getsize(args[path_arg]))
    return hook


class _SpsolveProxy(types.ModuleType):
    """Stand-in for ``scipy.sparse.linalg`` inside one module, with a
    traced ``spsolve`` and every other name passed through."""

    def __init__(self, real, spsolve):
        super().__init__(real.__name__)
        self._real = real
        self.spsolve = spsolve

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer, package) -> list:
    """Swap the boundary names of an imported ``hydrisim`` package for
    traced wrappers.  Returns the names that were not found."""
    from importlib import import_module

    mods = {name: import_module("%s.%s" % (package.__name__, name))
            for name in ("cli", "driver") + STAGE_MODULES}
    swaps = [
        ("cli", "command_dispatch", "cli.command_dispatch", None),
        ("cli", "parse_config", "cli.parse_config", None),
        ("cli", "run", "driver.run", None),
        ("driver", "validate_material", "constitutive.validate_material",
         None),
        ("driver", "build_mesh", "grid.build_mesh", None),
        ("driver", "build_operators", "mech_phase.build_operators", None),
        ("driver", "initial_row", "energy_audit.initial_row", None),
        ("driver", "incremental_objective", "mech_phase.objective", None),
        ("driver", "solve_mech_phase_step", "mech_phase.solve", _count_mech),
        ("driver", "solve_chi_step", "diffusion.solve", _count_diffusion),
        ("driver", "solve_w_step", "heat.solve", _count_heat),
        ("driver", "ledger_step", "energy_audit.ledger_step", None),
        ("driver", "write_energy_csv", "energy_audit.write_energy_csv",
         _count_bytes(1)),
        ("driver", "_write_snapshot", "driver.write_snapshot",
         _count_bytes(3)),
        ("driver", "_write_vtk", "driver.write_vtk", _count_bytes(3)),
        ("heat", "dissipation_rhs", "heat.dissipation_rhs", None),
    ]
    missing = []
    for mod, attr, name, hook in swaps:
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            missing.append("%s.%s" % (mod, attr))
        else:
            setattr(mods[mod], attr, tracer.wrap(name, fn, hook))
    # each stage module imports only the helpers it uses
    for mod in STAGE_MODULES:
        for attr in GRID_HELPERS + ("transport_coeffs",):
            fn = getattr(mods[mod], attr, None)
            if fn is not None:
                layer = "constitutive" if attr == "transport_coeffs" else "grid"
                setattr(mods[mod], attr,
                        tracer.wrap("%s.%s" % (layer, attr), fn))
    diffusion = mods["diffusion"]
    spla = getattr(diffusion, "spla", None)
    if spla is None:
        missing.append("diffusion.spla")
    else:
        diffusion.spla = _SpsolveProxy(
            spla, tracer.wrap("diffusion.spsolve", spla.spsolve))
    return missing


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_n, start, end, _p), c in zip(spans, child)]


def step_ms(spans) -> list:
    """Per-step wall times in ms.  A step runs from the driver's
    objective evaluation to the next one; the last ends where the ledger
    CSV write starts."""
    marks = [s[1] for s in spans if s[0] == "mech_phase.objective"]
    ends = [s[1] for s in spans if s[0] == "energy_audit.write_energy_csv"]
    if not marks or not ends:
        return []
    marks.append(ends[-1])
    return [1e3 * (b - a) for a, b in zip(marks[:-1], marks[1:])]


def run_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced run."""
    own = {}
    calls = {}
    for span, t in zip(spans, self_times(spans)):
        own[span[0]] = own.get(span[0], 0.0) + t
        calls[span[0]] = calls.get(span[0], 0) + 1
    out = {}
    for table in (SELF_TIME_METRICS, EXTRA_TIME_METRICS):
        for metric, names in table.items():
            out[metric] = sum(own.get(n, 0.0) for n in names)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    for key in ("mech_phase.outer_iters", "mech_phase.cg_iters",
                "mech_phase.prox_iters", "diffusion.picard_iters",
                "heat.picard_iters", "driver.output_bytes"):
        out[key] = counts.get(key, 0)
    steps = counts.get("diffusion.steps", 0)
    out["diffusion.picard_per_step"] = (
        out["diffusion.picard_iters"] / steps if steps else 0.0)
    covered = {n for names in SELF_TIME_METRICS.values() for n in names}
    out["trace.unmapped_spans"] = sum(c for n, c in calls.items()
                                      if n not in covered)
    out["trace.accounted_s"] = sum(out[m] for m in SELF_TIME_METRICS)
    return out

