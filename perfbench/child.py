"""One benchmark operation: a fresh process that runs ``hydrisim simulate``.

Usage: python3 perfbench/child.py SPAWNED_AT CONFIG OUTDIR RESULT TRACE

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it
started this process (the clock is system-wide, so set-up time includes
interpreter start).  The package is imported from ``src/`` of the
checkout this file sits in.  The result is written as JSON to RESULT;
the process exits with the code ``hydrisim simulate`` would exit with.
"""

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv) -> int:
    spawned_at, config, outdir, result_path, trace = argv
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    t_import = _now()
    import hydrisim
    from hydrisim import cli, driver
    from hydrisim.errors import HydrisimError
    import_s = _now() - t_import
    if not os.path.abspath(hydrisim.__file__).startswith(src + os.sep):
        print("hydrisim imported from %s, not %s" % (hydrisim.__file__, src),
              file=sys.stderr)
        return 1
    rss_after_import = _rss_bytes()

    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer(clock=_now)
        missing = spans.install(tracer, hydrisim)

    # step 1 can begin once the mechanics operators exist
    ready = []
    build_operators = driver.build_operators

    def marked_build_operators(*args, **kwargs):
        ops = build_operators(*args, **kwargs)
        ready.append(_now())
        return ops

    driver.build_operators = marked_build_operators

    t0 = _now()
    try:
        code = cli.command_dispatch(["simulate", config, "--out", outdir])
    except HydrisimError as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = exc.exit_code
    t1 = _now()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "setup_s": (ready[0] if ready else t1) - float(spawned_at),
        "import_s": import_s,
        "mem_peak_mb": (peak_kb * 1024 - rss_after_import) / 2 ** 20,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
        result["missing"] = missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
