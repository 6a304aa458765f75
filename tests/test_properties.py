"""Property tests drawn by hypothesis; skipped when it is not installed."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hydrisim.constitutive import desk_default_material  # noqa: E402
from hydrisim.grid import build_mesh  # noqa: E402
from hydrisim.heat import build_heat_operator  # noqa: E402


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
