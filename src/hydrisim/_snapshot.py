"""Snapshot files: the CSV and legacy ASCII VTK text of nodal fields.

The formatting works on flat sequences of numbers (lists, ``array``
objects or memoryviews).  A run writes each due snapshot in its own
process as the state arrives (``driver._Snapshots``): ``field_text``
formats every nodal value once for both files, and a ``MeshText`` kept
for the run formats the mesh columns, points and cells once.
"""

from __future__ import annotations

import os
from array import array
from functools import cached_property

# rows formatted per string: bounds the transient tuples and text
BLOCK_ROWS = 256

# the scalar fields of a snapshot, in column order after u
SCALARS = ("m", "chi", "mu", "w", "theta")


def snapshot_path(outdir: str, k: int, ext: str) -> str:
    return os.path.join(outdir, "fields_%06d.%s" % (k, ext))


def format_rows(values, width: int, line: str) -> list:
    """``line % row`` for each row of ``width`` consecutive entries of the
    flat sequence ``values``, joined into one string per block of
    ``BLOCK_ROWS`` rows."""
    step = BLOCK_ROWS * width
    return [(line * (len(block) // width)) % tuple(block)
            for block in (values[start:start + step]
                          for start in range(0, len(values), step))]


class MeshText:
    """The mesh-constant text of one run's snapshots, from the flat node
    coordinates (``dim`` per node) and element node ids (``dim + 1`` per
    element).  Each part is formatted when a snapshot first needs it and
    then kept, so a run formats its mesh once and a CSV-only run never
    formats the VTK part."""

    def __init__(self, dim: int, coords, elems):
        self.dim = dim
        self.coords = coords
        self.elems = elems

    @cached_property
    def csv_nodes(self) -> list:
        """The ``node,x[,y]`` columns, one string per block of rows."""
        d = self.dim
        n = len(self.coords) // d
        # unboxed rows: only the block being formatted holds float objects
        rows = array("d", bytes(8 * n * (d + 1)))
        rows[0::d + 1] = array("d", range(n))
        for c in range(d):
            rows[c + 1::d + 1] = array("d", self.coords[c::d])
        return format_rows(rows, d + 1,
                           ",".join(["%d"] + ["%.17g"] * d) + "\n")

    @cached_property
    def vtk_mesh(self) -> str:
        """The VTK file up to its first point-data line: header, points,
        cells and cell types."""
        d, coords, elems = self.dim, self.coords, self.elems
        n, nv = len(coords) // d, d + 1
        ne = len(elems) // nv
        points = array("d", bytes(24 * n))
        for c in range(d):
            points[c::3] = array("d", coords[c::d])
        cells = array("q", [nv]) * (ne * (nv + 1))
        for c in range(nv):
            cells[c + 1::nv + 1] = array("q", elems[c::nv])
        return "".join(
            ["# vtk DataFile Version 3.0\nhydrisim fields\nASCII\n"
             "DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % n]
            + format_rows(points, 3, "%.17g %.17g %.17g\n")
            + ["CELLS %d %d\n" % (ne, ne * (nv + 1))]
            + format_rows(cells, nv + 1, " ".join(["%d"] * (nv + 1)) + "\n")
            + ["CELL_TYPES %d\n" % ne, ("%d\n" % (3 if d == 1 else 5)) * ne,
               "POINT_DATA %d\nVECTORS u double\n" % n])


def field_text(dim: int, u, scalars) -> list:
    """Every nodal value formatted once as ``%.17g``, in the layout of the
    VTK point data: ``u`` (``dim`` values per node) as padded 3-vectors,
    then one column per sequence of ``scalars`` (the fields of
    ``SCALARS``), each a list of one string per block of rows.  No value
    contains whitespace, so ``str.split`` recovers the single values for
    the CSV rows."""
    u_line = " ".join(["%.17g"] * dim + ["0"] * (3 - dim)) + "\n"
    return ([format_rows(u, dim, u_line)]
            + [format_rows(vals, 1, "%.17g\n") for vals in scalars])


def write_csv(path: str, dim: int, fields: list, text: MeshText):
    """The CSV snapshot: the node index, then coordinates, displacement
    and scalars, one row per node, joined from the strings of
    ``field_text`` and ``text.csv_nodes``."""
    cols = ["node"] + ["x", "y"][:dim] + ["u%s" % ax for ax in "xy"[:dim]]
    with open(path, "w") as fh:
        fh.write(",".join(cols + list(SCALARS)) + "\n")
        for b, nodes in enumerate(text.csv_nodes):
            u = fields[0][b].split()
            values = [u[c::3] for c in range(dim)]
            values += [col[b].split() for col in fields[1:]]
            fh.write("\n".join(map(",".join, zip(nodes.split(), *values)))
                     + "\n")


def write_vtk(path: str, fields: list, text: MeshText):
    """The legacy ASCII VTK unstructured grid with the same values as the
    CSV: ``text.vtk_mesh``, then the strings of ``field_text`` as point
    data."""
    with open(path, "w") as fh:
        fh.write(text.vtk_mesh)
        fh.writelines(fields[0])
        for name, col in zip(SCALARS, fields[1:]):
            fh.write("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            fh.writelines(col)
