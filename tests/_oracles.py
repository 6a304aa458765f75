"""Independent oracles shared by the unit and acceptance suites.

Each helper recomputes a quantity by brute force or from a closed-form
reference, never by calling the code path under test.
"""

import numpy as np


def prox_scan(a_quad, b, p, kappa, lo, hi, resolution=1e-6):
    """Exhaustive scalar scan of (a/2)(v-b)^2 + kappa|v-p| over [lo,hi]."""
    n = int(round((hi - lo) / resolution)) + 1
    grid = np.linspace(lo, hi, n)
    q = 0.5 * a_quad * (grid - b) ** 2 + kappa * np.abs(grid - p)
    return float(grid[np.argmin(q)])


def prox_instances(n, seed=7):
    """Random admissible prox inputs over the unit box."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(0.5, 5.0), rng.uniform(-1.5, 2.5),
               rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))


def cos_mode_amplitude(coords_x, weights, field):
    """Lumped projection of a nodal field onto cos(pi x)."""
    mode = np.cos(np.pi * coords_x)
    return float(np.sum(weights * mode * field)
                 / np.sum(weights * mode ** 2))


def fitted_decay_rate(times, amplitudes):
    """Least-squares slope of -log|amplitude| against time."""
    times = np.asarray(times, float)
    amps = np.log(np.abs(np.asarray(amplitudes, float)))
    A = np.stack([times, np.ones_like(times)], axis=1)
    slope = np.linalg.lstsq(A, amps, rcond=None)[0][0]
    return -slope


def fd_eigenvalue(nx, length=1.0):
    """Discrete eigenvalue of the cos(pi x) mode for lumped P1 = FD on a
    uniform grid of nx nodes."""
    h = length / (nx - 1)
    return 2.0 / h ** 2 * (1.0 - np.cos(np.pi * h / length))


def reference_snapshot(mesh, mat, st):
    """The CSV snapshot of ``st``, formatted value by value."""
    d = mesh.dim
    cols = ["node"] + ["x", "y"][:d] + ["u%s" % ax for ax in "xy"[:d]]
    lines = [",".join(cols + ["m", "chi", "mu", "w", "theta"])]
    u = st.u.reshape(-1, d)
    theta = st.theta(mat)
    for i in range(mesh.n_nodes):
        vals = list(mesh.coords[i]) + list(u[i]) + [
            st.m[i], st.chi[i], st.mu[i], st.w[i], theta[i]]
        lines.append(",".join([str(i)] + ["%.17g" % v for v in vals]))
    return "\n".join(lines) + "\n"


def reference_vtk(mesh, mat, st):
    """The legacy VTK snapshot of ``st``, formatted value by value."""
    d, n, ne = mesh.dim, mesh.n_nodes, mesh.n_elems
    pad = [0.0] * (3 - d)
    lines = ["# vtk DataFile Version 3.0", "hydrisim fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % n]
    lines += [" ".join("%.17g" % v for v in list(p) + pad)
              for p in mesh.coords]
    lines.append("CELLS %d %d" % (ne, ne * (d + 2)))
    lines += [" ".join(str(v) for v in [d + 1] + [int(j) for j in conn])
              for conn in mesh.elems]
    lines.append("CELL_TYPES %d" % ne)
    lines += [str(3 if d == 1 else 5)] * ne
    lines += ["POINT_DATA %d" % n, "VECTORS u double"]
    lines += [" ".join("%.17g" % v for v in list(row) + pad)
              for row in st.u.reshape(-1, d)]
    for name, vals in (("m", st.m), ("chi", st.chi), ("mu", st.mu),
                       ("w", st.w), ("theta", st.theta(mat))):
        lines += ["SCALARS %s double 1" % name, "LOOKUP_TABLE default"]
        lines += ["%.17g" % v for v in vals]
    return "\n".join(lines) + "\n"


def scalar_fista(grad, lipschitz, m_prev, kappa, lo, hi, m0, converged,
                 max_iter=100000):
    """FISTA (Beck & Teboulle 2009) with one scalar step 1/L and the
    gradient restart of O'Donoghue & Candes (2015), minimizing
    f(m) + sum kappa |m - m_prev| over the box [lo, hi].

    ``grad`` is the gradient of the smooth part f and ``lipschitz`` a
    scalar bound on its Hessian.  The prox is the closed-form soft
    threshold toward ``m_prev`` followed by clipping.  Stops at the first
    iterate with ``converged(m, grad(m))``; returns it and the count.
    """
    def prox(v):
        d = v - m_prev
        shift = kappa / lipschitz
        shrunk = m_prev + np.sign(d) * np.maximum(np.abs(d) - shift, 0.0)
        return np.clip(shrunk, lo, hi)

    m = np.clip(m0, lo, hi)
    y = m.copy()
    t = 1.0
    for it in range(1, max_iter + 1):
        m_new = prox(y - grad(y) / lipschitz)
        if (y - m_new) @ (m_new - m) > 0.0:
            t = 1.0
            m_new = prox(m - grad(m) / lipschitz)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = m_new + ((t - 1.0) / t_next) * (m_new - m)
        m, t = m_new, t_next
        if converged(m, grad(m)):
            return m, it
    raise AssertionError("scalar FISTA did not converge")
