#!/usr/bin/env python3
"""omegaphase benchmark: workloads of CLI runs in a closed loop.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  One client runs the workload's
omegaphase CLI runs one after another, each in a fresh interpreter (so
program caches start cold and import cost is paid every time), and
repeats the whole sequence, at least twice (once when traced), while the
next repetition is expected to end within --seconds.  Every output is
checked (see workloads.py).  The children use one BLAS/OpenMP thread.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs every CLI run untraced and then traced, and reports the per-layer
metrics of BENCHMARK.json.  --workload all runs every workload in turn.
The last line of stdout is one JSON object; the exit code is 1 if any
output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import lru_cache
from pathlib import Path

import workloads
from workloads import CliRun, Mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_work")  # relative to ROOT, so manifests do not depend on the checkout path
CHILD_TIMEOUT_S = 120
IMPORTTIME_SAMPLES = 3
MIN_REPETITIONS = 2  # in an untraced run; a traced run makes at least one pair
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed package imports from .pyc
    return env


@lru_cache(maxsize=None)
def clock_oracle(T: int, mu: float) -> float:
    """Case-5 ground energy from the momentum root solve, a code path
    separate from the dense and Lanczos eigensolvers the CLI runs use."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from omegaphase import clock

    return clock.case_eigenvalue(5, T, mu)


def run_cli(run: CliRun, traced: bool, env: dict) -> dict:
    """One CLI child; returns its measurements and an error or None."""
    out = WORK / run.name
    report = WORK / f"{run.name}.report.json"
    shutil.rmtree(ROOT / out, ignore_errors=True)
    (ROOT / report).unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), str(report), "1" if traced else "0",
        "--", *run.argv, "--output-dir", str(out),
    ]
    result = {"name": run.name, "error": None, "artifact_bytes": 0}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return result
    try:
        result.update(json.loads((ROOT / report).read_text(encoding="utf-8")))
    except (OSError, ValueError):
        pass
    if proc.returncode != 0 or "run_s" not in result:
        result["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
    else:
        try:
            run.check(ROOT / out)
        except Mismatch as err:
            result["error"] = str(err)
    if (ROOT / out).is_dir():
        result["artifact_bytes"] = sum(p.stat().st_size for p in (ROOT / out).iterdir())
    shutil.rmtree(ROOT / out, ignore_errors=True)
    (ROOT / report).unlink(missing_ok=True)
    return result


def end_to_end(reps: list[list[dict]]) -> dict:
    ok = [r for rep in reps for r in rep if r["error"] is None]
    return {
        "run_s": statistics.median(sum(r.get("run_s", 0.0) for r in rep) for rep in reps),
        "setup_s": statistics.median(r["setup_s"] for r in ok) if ok else float("nan"),
        "peak_rss_mb": statistics.median(max(r.get("peak_rss_mb", 0.0) for r in rep) for rep in reps),
    }


def layer_values(rep: list[dict]) -> dict:
    """Per-layer numbers of one traced repetition, summed over its CLI runs."""
    self_s, span_s, calls = defaultdict(float), defaultdict(float), Counter()
    steps = outcomes = stages = 0
    for r in rep:
        t = r.get("trace")
        if t is None:
            continue
        for key, value in t["self_s"].items():
            self_s[key] += value
        for key, value in t["span_s"].items():
            span_s[key] += value
        for key, caller, n in t["calls"]:
            calls[key, caller] += n
        steps += t["steps_reported"]
        outcomes += t["outcomes"]
        stages += t["stages"]

    # Functions are matched by name, not module, so a function that
    # moves to another module keeps its metric.
    def span(fn: str) -> float:
        return sum((v for k, v in span_s.items() if k.rpartition(".")[2] == fn), 0.0)

    def count(fn: str = "", layer: str = "", caller: str = "") -> int:
        return sum(
            n for (k, c), n in calls.items()
            if (not fn or k.rpartition(".")[2] == fn)
            and (not layer or k.partition(".")[0] == layer)
            and (not caller or c == caller)
        )

    return {
        "clock.root_solve.calls": count("root_solve_case5"),
        "clock.root_solve_s": span("root_solve_case5"),
        "clock.eig_s": self_s["eig"],
        "clock.self_s": self_s["clock"],
        "qpe.distribution.calls": count("qpe_distribution"),
        "qpe.outcomes": outcomes,
        "qpe.self_s": self_s["qpe"],
        "dyadic.calls": count(layer="dyadic"),
        "dyadic.self_s": self_s["dyadic"],
        "tm.calls": count(layer="tm"),
        "tm.steps_reported": steps,
        "tm.self_s": self_s["tm"],
        "chaitin.omega_approx.calls": count("omega_approx"),
        "chaitin.tm_calls_per_stage": count("run_bounded", caller="chaitin") / stages if stages else 0.0,
        "chaitin.self_s": self_s["chaitin"],
        "phase.separation_checks": count("separation_holds"),
        "phase.find_s_prime_s": span("find_s_prime"),
        "phase.witness_calls": count("witness_wprime", caller="phase"),
        "phase.sweep_s": span("sweep"),
        "phase.self_s": self_s["phase"],
        "cli.self_s": self_s["cli"],
        "cli.artifact_bytes": sum(r["artifact_bytes"] for r in rep),
        "cli.rounding_scan_s": span("rounding_lemma_scan"),
    }


def import_breakdown(env: dict) -> dict:
    """Median self time per package of `import omegaphase.cli`, from
    `python -X importtime`."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import omegaphase.cli"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        totals = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if self_us.isdigit():
                totals[module.split(".")[0]] += int(self_us) / 1e6
        samples.append(totals)
    return {
        f"setup.{pkg}_s": statistics.median(s[pkg] for s in samples)
        for pkg in ("scipy", "numpy", "omegaphase")
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: "1" for var in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Run one workload; returns (metrics, attempted, failed)."""
    runs = workloads.build(name, seed, ROOT, clock_oracle)
    env = child_env()
    subprocess.run(  # compile .pyc files before timing
        [sys.executable, "-c", "import omegaphase.cli"], cwd=ROOT, env=env, check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append([])
        if trace:
            traced.append([])
        for r in runs:
            plain[-1].append(run_cli(r, False, env))
            if trace:  # the traced twin runs next, on the same machine state
                traced[-1].append(run_cli(r, True, env))
        elapsed = time.perf_counter() - start
        # stop when the next repetition is expected to overrun `seconds`
        if len(plain) >= (1 if trace else MIN_REPETITIONS) and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    reps = plain + traced
    failures = [r for rep in reps for r in rep if r["error"] is not None]
    for r in failures:
        print(f"FAILED {name}/{r['name']}: {r['error']}", file=sys.stderr)
    e2e = end_to_end(plain)
    print(
        f"{name} (seed {seed}): {len(plain)} untraced and {len(traced)} traced repetitions "
        f"of {len(runs)} CLI runs in {elapsed:.1f} s"
    )
    print(f"  run_s        {e2e['run_s']:.4f} s  (median of {len(plain)} repetitions)")
    print("    per CLI run: " + ", ".join(
        f"{run.name} {statistics.median(rep[i].get('run_s', 0.0) for rep in plain):.3f}"
        for i, run in enumerate(runs)
    ))
    print(f"  setup_s      {e2e['setup_s']:.4f} s  (median of {len(plain) * len(runs)} imports)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_share {len(failures) / (len(reps) * len(runs)):.4f}  ({len(failures)} of {len(reps) * len(runs)} CLI runs)")
    if not trace:
        return e2e, len(reps) * len(runs), len(failures)
    per_rep = [layer_values(rep) for rep in traced]
    layers = {k: statistics.median_low(v[k] for v in per_rep) for k in per_rep[0]}
    layers.update(import_breakdown(env))
    traced_run_s = end_to_end(traced)["run_s"]
    layers["trace.overhead_s"] = traced_run_s - e2e["run_s"]
    print(f"  tracing overhead {layers['trace.overhead_s']:.4f} s on run_s (traced {traced_run_s:.4f} s)")
    return layers, len(reps) * len(runs), len(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("BENCHMARK.json", "src/omegaphase/cli.py", "configs", "out") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not an omegaphase checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (ROOT / WORK).mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, n, f = measure(name, args.seed, args.seconds, bool(args.trace))
            attempted += n
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            for m in wanted:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
