"""Snapshot files: the CSV and legacy ASCII VTK text of nodal fields.

The formatting works on flat sequences of numbers (lists, ``array``
objects or memoryviews) and this file imports only the standard library,
so it runs unchanged as a run's snapshot writer process:

    python -I -S _snapshot.py OUTDIR < stream

``Writer`` starts that process and feeds it through a pipe: one mesh
message, then one message per snapshot, each a fixed header followed by
raw native-endian 8-byte values (see ``Writer.start`` and
``Writer.send``).  The process writes each snapshot as it arrives and
exits when the pipe closes, so the run formats nothing of the snapshots
it hands over and goes on with its next step on the other core.  The
writer ignores SIGINT: an interrupted run closes the pipe itself, and
every snapshot already handed over still reaches the disk.
"""

from __future__ import annotations

import os
import signal
import struct
import sys
from array import array
from functools import cached_property

# rows formatted per string: bounds the transient tuples and text
BLOCK_ROWS = 256

# the scalar fields of a snapshot, in column order after u
SCALARS = ("m", "chi", "mu", "w", "theta")

# dim, node count, element count, VTK flag; then the node coordinates
# (8-byte floats, node-major) and the element node ids (8-byte ints)
_MESH = struct.Struct("=4q")
# the step index; then u (node-major) and the scalars of SCALARS, all
# 8-byte floats
_STEP = struct.Struct("=q")

_PIPE_BYTES = 1 << 20


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


# ---------------------------------------------------------------------------
# the writer process and its client


class Writer:
    """A running writer process and the pipe that feeds it.

    ``send`` hands a snapshot over, ``end`` closes the pipe and ``join``
    waits until the writer has written everything handed over.  A writer
    that fails makes ``send`` or ``join`` raise ``OSError`` with its
    message.  ``abort`` ends and reaps the writer without raising, for a
    run that is already failing.
    """

    def __init__(self, proc):
        self.proc = proc
        self.message = ""

    @classmethod
    def start(cls, outdir: str, dim: int, coords, elems, vtk: bool):
        """Start a writer for snapshots of the mesh with the given flat
        8-byte float ``coords`` and 8-byte int ``elems`` (any buffers),
        or return None when no process can be started."""
        # imported here: the writer process itself never needs it
        import subprocess

        if not sys.executable:
            return None
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", os.path.abspath(__file__),
                 outdir], stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE)
        except OSError:
            return None
        _widen_pipe(proc.stdin.fileno())
        writer = cls(proc)
        n = memoryview(coords).nbytes // (8 * dim)
        ne = memoryview(elems).nbytes // (8 * (dim + 1))
        writer._put(_MESH.pack(dim, n, ne, int(vtk)), coords, elems)
        return writer

    def send(self, k: int, u, scalars):
        """Hand over snapshot ``k``: ``u`` and the fields of ``SCALARS``,
        each a buffer of 8-byte floats."""
        self._put(_STEP.pack(k), u, *scalars)

    def _put(self, *chunks):
        try:
            for chunk in chunks:
                self.proc.stdin.write(chunk)
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.end()
            self.join()
            raise OSError("snapshot writer stopped reading its input "
                          "and exited 0") from None

    def end(self):
        """Close the pipe: the writer finishes what it holds and exits."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass

    def join(self):
        """Wait for the writer to exit; raise OSError unless it exited 0."""
        proc = self.proc
        if not proc.stderr.closed:
            self.message = proc.stderr.read().decode(errors="replace").strip()
            proc.stderr.close()
        proc.wait()
        if proc.returncode != 0:
            raise OSError("snapshot writer exited with code %d: %s"
                          % (proc.returncode, self.message or "no message"))

    def abort(self):
        """End and reap the writer, ignoring its failure."""
        self.end()
        try:
            self.join()
        except OSError:
            pass


def _widen_pipe(fd: int):
    """Let the pipe hold 1 MiB where the platform allows, so a hand-off
    does not wait while the writer starts up."""
    try:
        import fcntl
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError("snapshot stream ended inside a message")
    return data


def serve(outdir: str, stream):
    """Read one mesh message and then snapshots from ``stream`` until it
    ends, writing each snapshot to ``outdir`` as it arrives."""
    dim, n, ne, vtk = _MESH.unpack(_read(stream, _MESH.size))
    coords = memoryview(_read(stream, 8 * n * dim)).cast("d")
    elems = memoryview(_read(stream, 8 * ne * (dim + 1))).cast("q")
    text = MeshText(dim, coords, elems)
    size = 8 * n * (dim + len(SCALARS))
    while True:
        head = stream.read(_STEP.size)
        if not head:
            return
        if len(head) != _STEP.size:
            raise EOFError("snapshot stream ended inside a message")
        (k,) = _STEP.unpack(head)
        vals = memoryview(_read(stream, size)).cast("d")
        scalars = [vals[(dim + i) * n:(dim + i + 1) * n]
                   for i in range(len(SCALARS))]
        fields = field_text(dim, vals[:dim * n], scalars)
        write_csv(snapshot_path(outdir, k, "csv"), dim, fields, text)
        if vtk:
            write_vtk(snapshot_path(outdir, k, "vtk"), fields, text)


def main(argv) -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        serve(argv[0], sys.stdin.buffer)
    except Exception as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
