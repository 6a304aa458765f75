"""Correctness gate on one run's ``energy.csv``.

It reads only what the program wrote.  A run passes when every row keeps
the certified invariants, the hydrogen ledger closes to round-off, and
(for the default seed) the final row matches the stored reference ledger.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

SLACK_BOUND = -1e-9
# the closed mechanical audit is solver dust: CG stops at 1e-12 and the
# 2D mechanics alternation at opt_tol 1e-8 relative to the forcing, which
# leaves it near 1e-12 on these workloads
NU0_BOUND = 1e-9
# the lumped mass of chi moves by exactly tau times the influx per step;
# allow a few ulps of the mass per step for the summation order
MASS_ULPS_PER_STEP = 64 * 2.0 ** -52
# final-row drift allowed against the stored reference: a solver change
# that still meets cg_tol/picard_tol moves the ledger far less than this
REF_RTOL = 1e-6
REF_ATOL = 1e-9

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_ledgers.json")


def read_ledger(path: str) -> list:
    """Rows of ``energy.csv`` as dicts of floats."""
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_ledger(rows: list, tau: float, influx: float) -> list:
    """Invariant failures of one ledger; empty when it passes.

    ``influx`` is the charging flux on a side of unit measure, so the
    hydrogen mass after n steps must be mass_0 + n * tau * influx.
    """
    if len(rows) < 2:
        return ["energy.csv holds %d rows" % len(rows)]
    bad = []
    for i, row in enumerate(rows):
        if not row["min_chi"] >= 0.0:
            bad.append("row %d: min_chi %.3e < 0" % (i, row["min_chi"]))
        if not row["min_w"] >= 0.0:
            bad.append("row %d: min_w %.3e < 0" % (i, row["min_w"]))
        if not row["slack_nu05"] >= SLACK_BOUND:
            bad.append("row %d: slack_nu05 %.3e < %g"
                       % (i, row["slack_nu05"], SLACK_BOUND))
        if not abs(row["residual_nu0"]) <= NU0_BOUND:
            bad.append("row %d: |residual_nu0| %.3e > %g"
                       % (i, row["residual_nu0"], NU0_BOUND))
    n = len(rows) - 1
    m0 = rows[0]["mass_chi"]
    for i, row in enumerate(rows):
        gain = row["mass_chi"] - m0
        tol = MASS_ULPS_PER_STEP * max(1.0, abs(row["mass_chi"])) * (i + 1)
        if not abs(gain - i * tau * influx) <= tol:
            bad.append("row %d: hydrogen ledger off by %.3e (tol %.1e)"
                       % (i, gain - i * tau * influx, tol))
    if abs(rows[-1]["t"] - n * tau) > 1e-12:
        bad.append("final t %r is not %d steps of %g" % (rows[-1]["t"], n, tau))
    return bad


def load_reference(workload: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]


def check_reference(final_row: dict, reference: dict) -> list:
    """Columns of the final row outside REF_RTOL/REF_ATOL of the reference."""
    bad = []
    for col, ref in reference.items():
        got = final_row.get(col)
        if got is None:
            bad.append("column %s missing" % col)
        elif not abs(got - ref) <= REF_ATOL + REF_RTOL * abs(ref):
            bad.append("final %s = %.17g, reference %.17g" % (col, got, ref))
    return bad
