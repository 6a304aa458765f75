"""The benchmark's workloads and the INI configs generated for them.

Each workload is a fixed problem size and stage mix; the seed only
perturbs the boundary influx and the initial concentration ramp inside
admissible ranges, so the amount of work per run barely moves with the
seed while the inputs (and ``energy.csv``) do.  The program receives
nothing but the generated INI file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
TAU = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    resolution: tuple
    steps: int
    chi0_base: float      # initial concentration level before the seed ramp
    every_n: int
    vtk: bool


WORKLOADS = {w.name: w for w in (
    Workload(
        "charge-1d",
        "many small 1D steps: per-call overhead of all three stages "
        "dominates; the mechanics CG and enthalpy loops show here",
        dim=1, resolution=(400,), steps=50, chi0_base=0.0, every_n=0,
        vtk=False),
    Workload(
        "charge-2d",
        "2D charging: the sparse direct solve of the concentration step "
        "dominates; mechanics and output are the no-change control",
        dim=2, resolution=(40, 40), steps=8, chi0_base=0.0, every_n=0,
        vtk=False),
    Workload(
        "phase-2d-snap",
        "chi0 near 1 drives the phase prox loop, and CSV+VTK snapshots "
        "every step load output I/O; the charge workloads bypass both",
        dim=2, resolution=(30, 30), steps=10, chi0_base=1.0, every_n=1,
        vtk=True),
)}


@dataclass(frozen=True)
class Inputs:
    """The seed-dependent numbers that go into a workload's INI."""

    influx: float         # charging flux on the left side (unit length)
    chi0_const: float
    chi0_slope_x: float
    chi0_slope_y: float


def inputs_for(workload: Workload, seed: int) -> Inputs:
    rng = random.Random("%s:%d" % (workload.name, seed))
    influx = round(rng.uniform(0.45, 0.55), 6)
    const = round(workload.chi0_base + rng.uniform(0.0, 0.01), 6)
    slope_x = round(rng.uniform(0.0, 0.01), 6)
    slope_y = round(rng.uniform(0.0, 0.01), 6) if workload.dim == 2 else 0.0
    return Inputs(influx, const, slope_x, slope_y)


def make_ini(workload: Workload, seed: int) -> str:
    """The INI text for one run; the same seed gives the same bytes."""
    inp = inputs_for(workload, seed)
    chi0 = "%.6f + %.6f*x" % (inp.chi0_const, inp.chi0_slope_x)
    if workload.dim == 2:
        chi0 += " + %.6f*y" % inp.chi0_slope_y
    lines = [
        "[domain]",
        "dim = %d" % workload.dim,
        "lengths = %s" % " ".join(["1.0"] * workload.dim),
        "resolution = %s" % " ".join(str(n) for n in workload.resolution),
        "",
        "[time]",
        "T = %r" % (workload.steps * TAU),
        "tau = %r" % TAU,
        "",
        "[initial]",
        "chi0 = %s" % chi0,
        "",
        "[sources]",
        "h_s = left: %.6f" % inp.influx,
        "",
        "[solver]",
        "cg_tol = 1e-12",
        "picard_tol = 1e-10",
        "",
        "[output]",
        "every_n = %d" % workload.every_n,
        "vtk = %s" % ("true" if workload.vtk else "false"),
        "",
    ]
    return "\n".join(lines)
