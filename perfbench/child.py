"""One omegaphase CLI run in a fresh interpreter, measured from inside.

Usage: python3 child.py REPORT TRACE -- <omegaphase CLI arguments>

Times `import omegaphase.cli` (the user's set-up cost) and `cli.run`,
runs the CLI through `cli.main` as the `omegaphase` script does, and
writes a JSON report to REPORT.  With TRACE=1 every layer is wrapped by
`tracer.Tracer` before the run.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process image (Linux).  Unlike
    ru_maxrss, VmHWM restarts at exec, so the parent's size at fork does
    not leak into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    t0 = time.perf_counter()
    import omegaphase.cli as cli

    setup_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run_s = 0.0
    run = cli.run

    def timed_run(cfg):
        nonlocal run_s
        t = time.perf_counter()
        try:
            return run(cfg)
        finally:
            run_s += time.perf_counter() - t

    cli.run = timed_run
    rc = cli.main(argv)
    report = {
        "exit_code": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
