"""Snapshot files: the CSV and legacy ASCII VTK text of nodal fields.

A run writes each due snapshot as its state arrives (``driver._Snapshots``),
formatted straight from the numpy arrays of the mesh and the ``State``, one
block of ``BLOCK_ROWS`` rows at a time: ``field_text`` formats every nodal
value once for both files, and the run's ``MeshText`` formats the mesh
columns, points and cells once.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from .constitutive import MaterialModel
from .grid import Mesh
from .state import State

# rows formatted per string: bounds the transient tuples and text
BLOCK_ROWS = 256

# the scalar fields of a snapshot, in column order after u
SCALARS = ("m", "chi", "mu", "w", "theta")


def snapshot_path(outdir: str, k: int, ext: str) -> str:
    return os.path.join(outdir, "fields_%06d.%s" % (k, ext))


def format_rows(rows: np.ndarray, line: str) -> list:
    """``line % row`` for each row of the 2D array ``rows``, joined into
    one string per block of ``BLOCK_ROWS`` rows."""
    return [(line * len(block)) % tuple(block.ravel().tolist())
            for block in (rows[start:start + BLOCK_ROWS]
                          for start in range(0, len(rows), BLOCK_ROWS))]


class MeshText:
    """The mesh-constant text of one run's snapshots.  Each part is
    formatted when a snapshot first needs it and then kept, so a run
    formats its mesh once and a CSV-only run never formats the VTK
    part."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh

    @cached_property
    def csv_nodes(self) -> list:
        """The ``node,x[,y]`` columns, one string per block of rows."""
        mesh = self.mesh
        rows = np.column_stack((np.arange(mesh.n_nodes), mesh.coords))
        return format_rows(rows,
                           ",".join(["%d"] + ["%.17g"] * mesh.dim) + "\n")

    @cached_property
    def vtk_mesh(self) -> str:
        """The VTK file up to its first point-data line: header, points,
        cells and cell types."""
        mesh, d = self.mesh, self.mesh.dim
        n, ne, nv = mesh.n_nodes, mesh.n_elems, d + 1
        points = np.zeros((n, 3))
        points[:, :d] = mesh.coords
        cells = np.column_stack((np.full(ne, nv), mesh.elems))
        return "".join(
            ["# vtk DataFile Version 3.0\nhydrisim fields\nASCII\n"
             "DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % n]
            + format_rows(points, "%.17g %.17g %.17g\n")
            + ["CELLS %d %d\n" % (ne, ne * (nv + 1))]
            + format_rows(cells, " ".join(["%d"] * (nv + 1)) + "\n")
            + ["CELL_TYPES %d\n" % ne, ("%d\n" % (3 if d == 1 else 5)) * ne,
               "POINT_DATA %d\nVECTORS u double\n" % n])


def field_text(mesh: Mesh, mat: MaterialModel, st: State) -> list:
    """Every nodal value of ``st`` formatted once as ``%.17g``, in the
    layout of the VTK point data: u as padded 3-vectors, then one column
    per field of ``SCALARS``, each a list of one string per block of
    rows.  No value contains whitespace, so ``str.split`` recovers the
    single values for the CSV rows."""
    d = mesh.dim
    u_line = " ".join(["%.17g"] * d + ["0"] * (3 - d)) + "\n"
    scalars = (st.m, st.chi, st.mu, st.w, st.theta(mat))
    return ([format_rows(np.reshape(st.u, (-1, d)), u_line)]
            + [format_rows(np.reshape(vals, (-1, 1)), "%.17g\n")
               for vals in scalars])


def write_snapshot(mesh: Mesh, mat: MaterialModel, st: State, path: str,
                   text: MeshText) -> list:
    """Write the nodal fields of ``st`` as CSV: the node index, then
    coordinates, displacement and scalars, one row per node.  Returns the
    strings of ``field_text`` for ``write_vtk`` to reuse; ``text`` is the
    run's ``MeshText``.  The benchmark's span hooks swap
    ``driver._write_snapshot`` and count the bytes of the file at
    argument 3, ``path``, so the arguments keep this order."""
    fields = field_text(mesh, mat, st)
    d = mesh.dim
    cols = ["node"] + ["x", "y"][:d] + ["u%s" % ax for ax in "xy"[:d]]
    with open(path, "w") as fh:
        fh.write(",".join(cols + list(SCALARS)) + "\n")
        for b, nodes in enumerate(text.csv_nodes):
            u = fields[0][b].split()
            values = [u[c::3] for c in range(d)]
            values += [col[b].split() for col in fields[1:]]
            fh.write("\n".join(map(",".join, zip(nodes.split(), *values)))
                     + "\n")
    return fields


def write_vtk(mesh: Mesh, mat: MaterialModel, st: State, path: str,
              fields: list, text: MeshText):
    """Write the nodal fields of ``st`` as a legacy ASCII VTK unstructured
    grid: ``text.vtk_mesh``, then ``fields``, the strings ``write_snapshot``
    returned for ``st``, as point data.  ``mesh``, ``mat`` and ``st`` are
    not read; they keep the argument order of ``write_snapshot`` for the
    same span hooks, which swap ``driver._write_vtk``."""
    with open(path, "w") as fh:
        fh.write(text.vtk_mesh)
        fh.writelines(fields[0])
        for name, col in zip(SCALARS, fields[1:]):
            fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            fh.writelines(col)
