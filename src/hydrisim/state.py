"""Per-step field snapshots and whole-run trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import MaterialModel, theta_of_w
from .grid import Mesh


@dataclass(frozen=True)
class State:
    """All nodal unknowns after step ``k`` (k=0 is the initial data).

    ``u_prev`` is the displacement one step earlier, so the backward
    velocity (u - u_prev)/tau is always available; at k=0 it holds
    u0 - tau*v0, which encodes the initial velocity.
    """

    k: int
    t: float
    u: np.ndarray
    u_prev: np.ndarray
    m: np.ndarray
    chi: np.ndarray
    w: np.ndarray
    mu: np.ndarray
    xi: np.ndarray

    def velocity(self, tau: float) -> np.ndarray:
        return (self.u - self.u_prev) / tau

    def theta(self, mat: MaterialModel) -> np.ndarray:
        return theta_of_w(mat, self.m, self.w)


@dataclass
class Trajectory:
    """A complete run: mesh, material, uniform step and the ledger.

    ``rows`` carries the per-step energy-ledger rows (row 0 is the initial
    snapshot with zero increments), filled in by the driver; they give the
    step count and the times.  No state is kept: ``driver.steps`` yields
    them one at a time.
    """

    mesh: Mesh
    mat: MaterialModel
    tau: float
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.rows) - 1

    @property
    def T(self) -> float:
        return self.rows[-1].t if self.rows else 0.0

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def check_uniform(self):
        t = self.times()
        if len(t) > 1 and not np.allclose(np.diff(t), self.tau, rtol=1e-12):
            raise ValueError("trajectory timestamps are not uniform")
