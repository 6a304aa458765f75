"""Runs read through ``hydrisim.driver.steps``, for the tests that need
the states, which ``run`` does not keep."""

from hydrisim.driver import steps
from hydrisim.state import Trajectory


def run_with_states(cfg):
    """The trajectory of ``cfg`` with the rows and iteration totals
    ``run`` gives (no file is written), and the list of its states."""
    states, rows, totals = [], [], {}
    for state, terms, row, iterations in steps(cfg):
        states.append(state)
        rows.append(row)
        for key, count in iterations.items():
            totals[key] = totals.get(key, 0) + count
    traj = Trajectory(mesh=terms.mesh, mat=terms.mat, tau=cfg.tau,
                      rows=rows, meta={"iterations": totals})
    return traj, states
