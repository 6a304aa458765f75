"""Command-line front end: config files in, deterministic artifacts out.

Config values are nondimensional.  Spatial/temporal dependence of data is
restricted to constants plus axis-aligned linear ramps, written like
``0.2 + 0.5*x - 1e-3*t``; boundary sources take optional side tags, e.g.
``h_s = left: 0.5 right: 0``.  Anything richer belongs in a Python script
against the library API.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import difflib
import logging
import re
import sys

import numpy as np

from .constitutive import desk_default_material, validate_material
from .driver import RunConfig, desk_default_config, prepare, refine_study, run
from .errors import NEG_TOL, ConfigError, HydrisimError
from .grid import SIDES_1D, SIDES_2D
from .mech_phase import tau_max

log = logging.getLogger("hydrisim.cli")

SECTION_KEYS = {
    "domain": ("dim", "lengths", "resolution"),
    "time": ("T", "tau"),
    "material": ("E", "lame", "D", "rho", "alpha", "lambda", "k", "a1",
                 "phi1_kappa", "r", "m_lo", "m_hi", "eps_tr", "alpha_th",
                 "heat_law", "c0", "K0", "M0"),
    "initial": ("u0", "v0", "m0", "chi0", "theta0"),
    "sources": ("f", "q", "f_s", "q_s", "h_s"),
    "solver": ("cg_tol", "picard_tol", "picard_max", "opt_tol", "opt_max"),
    "output": ("dir", "every_n", "vtk"),
}

_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>" + _NUM + r")\s*(?:\*\s*(?P<var1>[A-Za-z_]\w*))?"
    r"|(?P<var2>[A-Za-z_]\w*))\s*")


def _nearest(key: str, options) -> str:
    hits = difflib.get_close_matches(key, options, n=1)
    return " (did you mean %r?)" % hits[0] if hits else ""


class Ramp:
    """const + cx*x + cy*y + ct*t, the whole configurable source algebra."""

    def __init__(self, const=0.0, cx=0.0, cy=0.0, ct=0.0):
        self.const, self.cx, self.cy, self.ct = const, cx, cy, ct

    def __call__(self, coords=None, t=0.0):
        val = self.const + self.ct * t
        if coords is None:
            return val
        out = np.full(coords.shape[0], val, float)
        out += self.cx * coords[:, 0]
        if coords.shape[1] > 1:
            out += self.cy * coords[:, 1]
        return out

    @property
    def is_constant(self):
        return self.cx == self.cy == self.ct == 0.0


def parse_ramp(text: str, allowed: str, context: str) -> Ramp:
    """Parse ``a + b*x + c*y + d*t`` with only the variables in
    ``allowed`` admitted."""
    ramp = Ramp()
    pos = 0
    first = True
    text = text.strip()
    if not text:
        raise ConfigError("%s: empty expression" % context)
    while pos < len(text):
        mt = _TERM.match(text, pos)
        if not mt or mt.end() == pos:
            raise ConfigError("%s: cannot parse %r near position %d"
                              % (context, text, pos))
        sign, num, var = (mt.group("sign"), mt.group("num"),
                          mt.group("var1") or mt.group("var2"))
        if not first and sign is None:
            raise ConfigError("%s: missing +/- between terms in %r"
                              % (context, text))
        coef = float(num) if num is not None else 1.0
        if sign == "-":
            coef = -coef
        if not np.isfinite(coef):
            raise ConfigError("%s: non-finite value in %r" % (context, text))
        if var is None:
            ramp.const += coef
        elif var in tuple(allowed):
            setattr(ramp, "c" + var, getattr(ramp, "c" + var) + coef)
        else:
            raise ConfigError(
                "%s: variable %r not allowed here (allowed: %s)"
                % (context, var, ", ".join(allowed) or "none"))
        pos = mt.end()
        first = False
    return ramp


def _parse_float(raw: str, context: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError("%s: not a number: %r" % (context, raw)) from None
    if not np.isfinite(val):
        raise ConfigError("%s: non-finite value %r" % (context, raw))
    return val


def _parse_whole(raw: str, context: str) -> int:
    """A whole number >= 0; ``2.5`` or ``-3`` is an error, not truncated."""
    val = _parse_float(raw, context)
    if val < 0 or not val.is_integer():
        raise ConfigError("%s must be a whole number >= 0, got %r"
                          % (context, raw.strip()))
    return int(val)


def _parse_pair(raw: str, context: str, conv=_parse_float):
    parts = [p for p in re.split(r"[,\s]+", raw.strip()) if p]
    vals = tuple(conv(p, context) for p in parts)
    if len(vals) not in (1, 2):
        raise ConfigError("%s: expected one or two numbers" % context)
    return vals


def _parse_vector(raw: str, variables: str, context: str, dim: int,
                  label: str | None = None) -> list:
    """Ramps of the ``;``-separated components of a vector value, one
    per axis; ``label`` names the value in the count error."""
    comps = [parse_ramp(c, variables, context) for c in raw.split(";")]
    if len(comps) != dim:
        raise ConfigError("%s: expected %d components"
                          % (label or context, dim))
    return comps


def _split_sides(raw: str, context: str):
    """Break ``left: expr right: expr`` into side chunks; an untagged
    value applies to every side of the mesh."""
    tag = re.compile(r"\b(%s)\s*:" % "|".join(SIDES_2D))
    tags = list(tag.finditer(raw))
    if not tags:
        return {None: raw.strip()}
    if raw[:tags[0].start()].strip():
        raise ConfigError("%s: stray text before first side tag in %r"
                          % (context, raw))
    out = {}
    for i, mt in enumerate(tags):
        end = tags[i + 1].start() if i + 1 < len(tags) else len(raw)
        chunk = raw[mt.end():end].strip()
        if not chunk:
            raise ConfigError("%s: empty value for side %r"
                              % (context, mt.group(1)))
        out[mt.group(1)] = chunk
    return out


def _side_ramps(raw: str, context: str, dim: int, vector: bool):
    """Side -> value of a boundary source.  A side that the mesh lacks is
    kept, for the input gate (``driver.prepare``) to reject."""
    chunks = _split_sides(raw, context)
    if None in chunks:
        chunks = {s: chunks[None] for s in (SIDES_1D if dim == 1
                                            else SIDES_2D)}
    out = {}
    for side, chunk in chunks.items():
        if vector:
            comps = _parse_vector(chunk, "t", context, dim,
                                  "%s[%s]" % (context, side))
            out[side] = (lambda t, cc=comps:
                         np.array([c(None, t) for c in cc]))
        else:
            ramp = parse_ramp(chunk, "t", context)
            out[side] = ramp.const if ramp.is_constant else (
                lambda t, rr=ramp: rr(None, t))
    return out


def _check_keys(parser: configparser.ConfigParser, path: str):
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ConfigError("%s: unknown section [%s]%s"
                              % (path, section,
                                 _nearest(section, SECTION_KEYS)))
        valid = SECTION_KEYS[section]
        for key in parser[section]:
            if key not in valid:
                raise ConfigError("%s: unknown key %r in [%s]%s"
                                  % (path, key, section,
                                     _nearest(key, valid)))


def _material_from(sec, dim: int):
    kw = {"dim": dim}
    if "E" in sec and "lame" in sec:
        raise ConfigError("[material]: give E or lame, not both")
    if "E" in sec:
        val = _parse_float(sec["E"], "[material] E")
        kw["lame"] = (0.0, 0.5 * val)
    elif "lame" in sec:
        pair = _parse_pair(sec["lame"], "[material] lame")
        kw["lame"] = pair if len(pair) == 2 else (0.0, 0.5 * pair[0])
    if "D" in sec:
        pair = _parse_pair(sec["D"], "[material] D")
        kw["visc"] = pair if len(pair) == 2 else (0.0, 0.5 * pair[0])
    direct = {"rho": "rho", "alpha": "alpha", "lambda": "grad_coeff",
              "k": "coupling_k", "a1": "a1", "phi1_kappa": "phi1_kappa",
              "r": "threshold_r", "m_lo": "m_lo", "m_hi": "m_hi",
              "eps_tr": "eps_tr", "alpha_th": "alpha_th", "c0": "c0",
              "K0": "K0", "M0": "M0"}
    for key, attr in direct.items():
        if key in sec:
            kw[attr] = _parse_float(sec[key], "[material] %s" % key)
    if "heat_law" in sec:
        kw["heat_law"] = sec["heat_law"].strip()
    base = desk_default_material(dim)
    return dataclasses.replace(base, **kw)


def parse_config(path: str) -> RunConfig:
    """Read an experiment description; every omitted key falls back to
    the desk default and the fallback is logged.

    Only the text is checked here: sections, key names, number formats,
    expressions, side tags and ``dim``, which the variables and sides of
    the other keys depend on.  Whether the values make a valid run is
    decided by ``driver.prepare``, which ``run`` and ``hydrisim validate``
    both call."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read config file %r" % path)
    _check_keys(parser, path)

    def sec(name):
        return parser[name] if parser.has_section(name) else {}

    dom = sec("domain")
    dim = _parse_whole(dom["dim"], "[domain] dim") if "dim" in dom else 1
    if dim not in (1, 2):
        raise ConfigError("[domain] dim must be 1 or 2")
    if "lengths" in dom:
        lengths = _parse_pair(dom["lengths"], "[domain] lengths")
    else:
        lengths = (1.0,) * dim
    if "resolution" in dom:
        resolution = _parse_pair(dom["resolution"], "[domain] resolution",
                                 _parse_whole)
    else:
        resolution = (50,) * dim

    tm = sec("time")
    T = _parse_float(tm["T"], "[time] T") if "T" in tm else 0.05
    tau = _parse_float(tm["tau"], "[time] tau") if "tau" in tm else 1e-3

    if parser.has_section("material"):
        mat = _material_from(parser["material"], dim)
    else:
        mat = desk_default_material(dim)
        log.info("defaulted [material] to the desk material")

    spatial = "x" if dim == 1 else "xy"
    ini = sec("initial")
    init_kw = {}
    for key in ("m0", "chi0", "theta0"):
        if key in ini:
            ramp = parse_ramp(ini[key], spatial, "[initial] %s" % key)
            init_kw[key] = ramp.const if ramp.is_constant else (
                lambda coords, rr=ramp: rr(coords))
    for key in ("u0", "v0"):
        if key in ini:
            comps = _parse_vector(ini[key], spatial, "[initial] %s" % key,
                                  dim)
            init_kw[key] = (lambda coords, cc=comps:
                            np.stack([c(coords) for c in cc], axis=1))

    src = sec("sources")
    src_kw = {}
    if "f" in src:
        comps = _parse_vector(src["f"], spatial + "t", "[sources] f", dim)
        src_kw["f"] = (lambda coords, t, cc=comps:
                       np.stack([c(coords, t) for c in cc], axis=1))
    if "q" in src:
        ramp = parse_ramp(src["q"], spatial + "t", "[sources] q")
        src_kw["q"] = lambda coords, t, rr=ramp: rr(coords, t)
    if "h_s" in src:
        src_kw["h_s"] = _side_ramps(src["h_s"], "[sources] h_s", dim, False)
    if "q_s" in src:
        src_kw["q_s"] = _side_ramps(src["q_s"], "[sources] q_s", dim, False)
    if "f_s" in src:
        src_kw["f_s"] = _side_ramps(src["f_s"], "[sources] f_s", dim, True)

    sol = sec("solver")
    sol_kw = {}
    for key, conv in (("cg_tol", _parse_float), ("picard_tol", _parse_float),
                      ("picard_max", _parse_whole), ("opt_tol", _parse_float),
                      ("opt_max", _parse_whole)):
        if key in sol:
            sol_kw[key] = conv(sol[key], "[solver] %s" % key)

    out = sec("output")
    out_kw = {}
    if "dir" in out:
        out_kw["outdir"] = out["dir"].strip()
    if "every_n" in out:
        out_kw["every_n"] = _parse_whole(out["every_n"], "[output] every_n")
    if "vtk" in out:
        raw = out["vtk"].strip().lower()
        if raw not in ("0", "1", "true", "false", "yes", "no"):
            raise ConfigError("[output] vtk: expected a boolean")
        out_kw["vtk"] = raw in ("1", "true", "yes")

    cfg = RunConfig(dim=dim, lengths=lengths, resolution=resolution,
                    material=mat, T=T, tau=tau, **init_kw, **src_kw,
                    **sol_kw, **out_kw)
    # outdir is settled by _cmd_simulate (--out, else [output] dir, else
    # "out"), which logs its own fallback
    given = {k for s in parser.sections() for k in parser[s]}
    for fld in dataclasses.fields(cfg):
        if fld.name not in given and fld.name not in ("material", "n_steps",
                                                      "outdir"):
            log.info("defaulted %s = %r", fld.name, getattr(cfg, fld.name))
    return cfg


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if args.out:
        cfg = dataclasses.replace(cfg, outdir=args.out)
    if not cfg.outdir:
        cfg = dataclasses.replace(cfg, outdir="out")
        log.info("defaulted outdir = %r", cfg.outdir)
    traj = run(cfg)
    last = traj.rows[-1]
    print("completed %d steps to T=%g" % (traj.n_steps, traj.T))
    print("final energies: kinetic=%.6g stored=%.6g gradient=%.6g "
          "thermal=%.6g" % (last.kinetic, last.stored, last.gradient,
                            last.thermal))
    print("min chi=%.3e  min w=%.3e  hydrogen mass=%.12g"
          % (last.min_chi, last.min_w, last.mass_chi))
    print("artifacts in %s" % cfg.outdir)
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    mat = cfg.resolved_material()
    for res in validate_material(mat).checks:
        print(res)
    prepare(cfg)
    print("config: dim=%d mesh=%s T=%g tau=%g (tau_max=%g)"
          % (cfg.dim, "x".join(str(r) for r in cfg.resolution), cfg.T,
             cfg.tau, tau_max(mat, cfg.T)))
    print("all checks passed")
    return 0


def _cmd_refine(args) -> int:
    cfg = parse_config(args.config)
    rep = refine_study(cfg, levels=args.levels)
    print("taus: " + "  ".join("%g" % t for t in rep.taus))
    for name in rep.fields:
        dd = "  ".join("%.6e" % d for d in rep.diffs[name])
        rr = "  ".join("%.3f" % r for r in rep.ratios[name]) or "-"
        print("%-12s diffs: %s   ratios: %s" % (name, dd, rr))
    print("nu=1 defects: " + "  ".join("%.6e" % d for d in rep.nu1_defects))
    if rep.nu1_ratios:
        print("nu=1 ratios:  " + "  ".join("%.3f" % r
                                           for r in rep.nu1_ratios))
    drift = _apriori_drift(rep.apriori)
    print("apriori norm max variation: %.2f%%" % (100.0 * drift))
    return 0


def _apriori_drift(monitors) -> float:
    worst = 0.0
    for key in monitors[0]:
        vals = [m[key] for m in monitors]
        hi, lo = max(vals), min(vals)
        if hi > 1e-14:
            worst = max(worst, (hi - lo) / hi)
    return worst


def _selftest_suites():
    from .energy_audit import balance_residual
    from .mech_phase import phase_nodal_prox
    from .constitutive import chemical_potential, dphi1_dm

    def suite_material():
        for dim in (1, 2):
            report = validate_material(desk_default_material(dim))
            yield "material(dim=%d)" % dim, report.ok

    def suite_conservation():
        cfg = desk_default_config(resolution=(30,), T=0.01, h_s=None,
                                  chi0=lambda x: 0.2 + 0.3 * x[:, 0])
        traj = run(cfg)
        drift = abs(traj.rows[-1].mass_chi - traj.rows[0].mass_chi)
        yield "closed-system mass drift", drift <= 1e-12
        cfg = desk_default_config(resolution=(30,), T=0.01)
        traj = run(cfg)
        gain = traj.rows[-1].mass_chi - traj.rows[0].mass_chi
        expect = 0.5 * traj.n_steps * traj.tau
        yield "charging mass ledger", abs(gain - expect) <= 1e-12

    def suite_invariants():
        cfg = desk_default_config(resolution=(30,), T=0.02)
        traj = run(cfg)
        yield "chi nonnegative", min(r.min_chi for r in traj.rows) >= -NEG_TOL
        yield "w nonnegative", min(r.min_w for r in traj.rows) >= -NEG_TOL
        slack = balance_residual(traj, 0.5)
        yield "energy slack", float(slack.min()) >= -1e-9
        nu0 = balance_residual(traj, 0.0)
        yield "mechanical audit", float(np.abs(nu0).max()) <= 1e-7

    def suite_kernels():
        ok = abs(phase_nodal_prox(1.0, 0.3, 0.0, 0.05, 0.0, 1.0) - 0.25) \
            <= 1e-14
        yield "prox slip value", ok
        yield "prox stick value", phase_nodal_prox(
            1.0, 0.03, 0.0, 0.05, 0.0, 1.0) == 0.0
        mat = desk_default_material(1)
        h = 1e-6
        fd = (chemical_potential(mat, 0.5, 1.0 + h)
              - chemical_potential(mat, 0.5, 1.0 - h)) / (2 * h)
        from .constitutive import d2phi1_dchichi
        yield "mu derivative", abs(
            fd - d2phi1_dchichi(mat, 0.5, 1.0)) <= 1e-5
        fd = (dphi1_dm(mat, 0.5 + h, 1.0) - dphi1_dm(mat, 0.5 - h, 1.0)) \
            / (2 * h)
        from .constitutive import d2phi1_dmm
        yield "phase derivative", abs(fd - d2phi1_dmm(mat, 0.5, 1.0)) <= 1e-5

    def suite_determinism():
        import os
        import tempfile
        from .energy_audit import write_energy_csv

        def render(tmp, name):
            path = os.path.join(tmp, name)
            write_energy_csv(run(desk_default_config(resolution=(20,),
                                                     T=0.005)), path)
            with open(path, "rb") as fh:
                return fh.read()

        with tempfile.TemporaryDirectory() as tmp:
            same = render(tmp, "a") == render(tmp, "b")
        yield "byte-identical reruns", same

    return (("material", suite_material), ("conservation", suite_conservation),
            ("invariants", suite_invariants), ("kernels", suite_kernels),
            ("determinism", suite_determinism))


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, gen in _selftest_suites():
        results = list(gen())
        passed = sum(1 for _, ok in results if ok)
        print("suite %-13s %d/%d passed" % (name, passed, len(results)))
        for label, ok in results:
            if not ok:
                failures += 1
                print("  FAILED: %s" % label)
    if failures:
        print("%d selftest failure(s)" % failures)
        return 1
    print("selftest ok")
    return 0


def command_dispatch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="hydrisim",
        description="metal-hydride storage simulator with energy audit")
    subs = parser.add_subparsers(dest="command", required=True)
    p = subs.add_parser("simulate", help="run one experiment")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=_cmd_simulate)
    p = subs.add_parser("validate",
                        help="check material assumptions and config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)
    p = subs.add_parser("refine", help="step-refinement study")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=_cmd_refine)
    p = subs.add_parser("selftest", help="built-in invariant/oracle checks")
    p.set_defaults(func=_cmd_selftest)
    args = parser.parse_args(argv)
    return args.func(args)


def main() -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        code = command_dispatch(sys.argv[1:])
    except HydrisimError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = exc.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())
