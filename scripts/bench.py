"""Wall times of the acceptance configs and of the exact estimation hot
paths, written to one JSON file.

Run from the repository root::

    PYTHONPATH=src python scripts/bench.py BENCH_<n>.json

Every timing is the median of eleven in-process runs, with all eleven
kept, next to their minimum (``min_s``) and interquartile spread
(``iqr_s``, the third quartile less the first): on a shared host one run
can stray by a quarter, so compare medians only where they differ by more
than the spread.
``rounding_lemma_scan_12``, ``qpe_distribution_csv_n18`` and
``clock_single_dense_T600`` also record ``peak_traced_mb``: the
``tracemalloc`` peak, in MB, of one more run made after the timed ones
(numpy reports its buffers to ``tracemalloc``).
Each acceptance config runs through ``cli.main`` into a temporary
directory; runs after the first see warm in-process caches (config 12
reuses the separation scale config 08 found).  The microbenchmarks run on
fixed inputs:

- ``rounding_core_scalar_n12``: on every 12-bit grid point z/2^12 for
  every 1 <= m < 12, one Python int at a time, the dyadic rounding core's
  round-then-truncate ``truncate_num(round_up_num(.))`` and best pair
  ``best_pair_num``, and ``truncate`` of the ``Fraction`` z/2^12;
- ``rounding_lemma_scan_12``: ``qpe.rounding_lemma_scan(12)``, which runs
  the dyadic rounding core on whole grid rows;
- ``bound_scan_257_14``: ``qpe.bound_scan`` on config 04's 256 phases
  k/257 at n_max = 14, in process (the QPE grid kernel without the CLI);
- ``qpe_distribution_csv_n18``: ``qpe`` distribution mode at phi = 100/257,
  n = 18, m = 12 through ``cli.main``, the 2^18-row CSV included;
- ``sweep_omega58_256``: ``sweep`` of zoo machine omega58 on the grid
  k/256 through ``cli.main``, as the benchmark's sweep run makes it;
- ``sweep_omega34_64_20000``: ``sweep`` of zoo machine omega34 on the
  grid k/64 at ``s_budget=20000`` through ``cli.main``, far past the auto
  budget s' + 1: about 13,400 distinct (side, regime) energies, each
  bound near 40,000 bits, and two 6 MB ``.dat`` tables;
- ``clock_single_dense_T600``, ``clock_single_iterative_T200`` and
  ``clock_single_iterative_T400``: ``clock`` single mode at mu = 0.37
  through ``cli.main``, dense at T = 600 and banded at T = 200 and 400;
- ``clock_assemble_T1500`` and ``ground_energy_iterative_T1500``:
  ``clock.assemble`` of ``case5_spec(1500, 0.37)``, and
  ``clock.ground_energy`` of that spec by the banded path, in process;
- ``gap_law_grid_default``: ``clock.gap_law_grid`` on the 567-point
  default grid of ``clock`` grid mode (T = 2..64, mu = 0.1..0.9);
- ``chain_oracle_grid``: the 567 oracle ground energies of that grid,
  ``chain_ground_energy(*case_chain(5, T, mu))``, alone;
- ``separation_walk_default`` and ``separation_walk_xi16_d1``: the
  separation walk ``phase.find_s_prime`` without its cache, on the
  default model and on ``xi=16, poly_degree=1``;
- ``stages_omega34_1000`` and ``stages_bouncer_3000``: the stage values
  1..B as the ``omega`` command gets them, ``tm.walk_inputs`` at budget B
  (its prefix-freeness check included) and ``chaitin.omega_stage_values``
  read off it; on zoo machine omega34 at B = 1,000, and at B = 3,000 on a
  machine whose two states swap on cell 0 forever, so each of its four
  branches runs the whole budget;
- ``prefix_walk_reader``: ``tm.walk_inputs`` at budget 14 on a machine
  that reads its input up to the first blank and then loops in place;
  the walk visits 49,150 branches (2^15 - 1 with the input still open,
  2^14 - 1 where it ended);
- ``prefix_walk_reader_6568``: the same reader machine at budget 6,568
  (the ``sweep`` auto budget), which the walk refuses once it has visited
  200,000 branches, each with a copy of a tape up to 6,568 cells long;
- ``prefix_check_zeros_then_one_6568``: ``tm.walk_inputs`` at budget
  6,568 on a prefix-free machine that halts exactly on the words 0^k 1,
  so the walk is cheap and the check sorts 6,567 halting words for prefix
  pairs;
- ``prefix_refuse_every_word_15``: ``tm.walk_inputs`` at budget 15 on a
  machine that halts on every input once it reads past the end, which
  the walk refuses after sorting its 32,767 halting words for the least
  nested pair;
- ``import_cli_fresh_process``: ``python -c "import omegaphase.cli"`` in a
  fresh interpreter, the set-up cost every CLI run pays, with the same
  ``omegaphase`` source as the other entries.

BLAS runs single-threaded unless the environment says otherwise; the file
records nproc, the BLAS thread variables and the Python and numpy
versions, since wall times on a shared host drift.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from omegaphase import chaitin, cli, clock, phase, qpe  # noqa: E402
from omegaphase.dyadic import best_pair_num, round_up_num, truncate, truncate_num  # noqa: E402
from omegaphase.tm import parse_machine, walk_inputs  # noqa: E402
from omegaphase.zoo import zoo_machine  # noqa: E402

REPEATS = 11
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
READER = parse_machine(
    "start: a\nhalt: h\na 0 -> a 0 R\na 1 -> a 1 R\na _ -> a _ S", name="reader"
)
EVERY_WORD = parse_machine(
    "start: a\nhalt: h\na 0 -> a 0 R\na 1 -> a 1 R\na _ -> h _ S", name="every_word"
)
ZEROS_THEN_ONE = parse_machine(
    "start: a\nhalt: h\na 0 -> a 0 R\na 1 -> b 1 R\na _ -> a _ S\n"
    "b _ -> h _ S\nb 0 -> b 0 S\nb 1 -> b 1 S",
    name="zeros_then_one",
)
BOUNCER = parse_machine(
    "start: a\nhalt: h\na 0 -> b 0 S\na 1 -> b 1 S\na _ -> b _ S\n"
    "b 0 -> a 0 S\nb 1 -> a 1 S\nb _ -> a _ S",
    name="bouncer",
)


def timed(fn, trace_memory: bool = False) -> dict:
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    quartiles = statistics.quantiles(runs, n=4)
    result = {
        "median_s": statistics.median(runs),
        "min_s": min(runs),
        "iqr_s": quartiles[2] - quartiles[0],
        "runs_s": runs,
    }
    if trace_memory:
        tracemalloc.start()
        try:
            fn()
            result["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return result


def run_cli(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if cli.main([*argv, "--output-dir", str(Path(tmp) / "run")]) != cli.EXIT_OK:
            raise RuntimeError(f"omegaphase {' '.join(argv)} failed")


def stage_values(spec, budget: int) -> None:
    chaitin.omega_stage_values(walk_inputs(spec, budget), budget)


def refused_walk(spec, budget: int) -> None:
    try:
        walk_inputs(spec, budget)
    except ValueError:
        return
    raise RuntimeError(f"{spec.name} was not refused at budget {budget}")


def import_cli() -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", "import omegaphase.cli"], env=env, check=True)


def rounding_core_scalar(n: int = 12) -> None:
    for m in range(1, n):
        for z in range(1 << n):
            truncate_num(round_up_num(z, n, m), n, m)
            best_pair_num(z, n, m)
            truncate(Fraction(z, 1 << n), m)


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit("usage: python scripts/bench.py OUTPUT.json")
    configs = {}
    for path in sorted(CONFIGS.glob("acceptance_*.json")):
        command = json.loads(path.read_text(encoding="utf-8"))["command"]
        configs[path.stem] = result = timed(lambda: run_cli([command, "--config", str(path)]))
        print(f"{path.stem}: {result['median_s']:.3f} s (iqr {result['iqr_s']:.3f})", file=sys.stderr)
    qpe_argv = ["qpe", "-p", "mode=distribution", "-p", "phi=100/257", "-p", "n=18", "-p", "m=12"]
    sweep_argv = ["sweep", "-p", "machine=zoo:omega58", "-p", "grid_denominator=256"]
    sweep34_argv = ["sweep", "-p", "machine=zoo:omega34", "-p", "grid_denominator=64", "-p", "s_budget=20000"]
    clock_argv = ["clock", "-p", "mode=single", "-p", "mu=0.37"]
    grid = cli.PARAM_KEYS["clock"]["grid"]
    t_values, mu_values = grid["t_values"][1], grid["mu_values"][1]
    points = [(T, mu) for T in t_values for mu in mu_values]
    spec = clock.case5_spec(1500, 0.37)
    phases_257 = [Fraction(k, 257) for k in range(1, 257)]
    micro = {
        "rounding_core_scalar_n12": timed(rounding_core_scalar),
        "rounding_lemma_scan_12": timed(lambda: qpe.rounding_lemma_scan(12), trace_memory=True),
        "bound_scan_257_14": timed(lambda: qpe.bound_scan(phases_257, 14)),
        "qpe_distribution_csv_n18": timed(lambda: run_cli(qpe_argv), trace_memory=True),
        "sweep_omega58_256": timed(lambda: run_cli(sweep_argv)),
        "sweep_omega34_64_20000": timed(lambda: run_cli(sweep34_argv)),
        "clock_single_dense_T600": timed(
            lambda: run_cli([*clock_argv, "-p", "T=600"]), trace_memory=True
        ),
        "clock_single_iterative_T200": timed(
            lambda: run_cli([*clock_argv, "-p", "T=200", "-p", "method=iterative"])
        ),
        "clock_single_iterative_T400": timed(
            lambda: run_cli([*clock_argv, "-p", "T=400", "-p", "method=iterative"])
        ),
        "clock_assemble_T1500": timed(
            lambda: clock.assemble(
                spec.T, spec.input_penalty_total, spec.output_projector, spec.unitaries
            )
        ),
        "ground_energy_iterative_T1500": timed(lambda: clock.ground_energy(spec, "iterative")),
        "gap_law_grid_default": timed(lambda: clock.gap_law_grid(t_values, mu_values)),
        "chain_oracle_grid": timed(
            lambda: [clock.chain_ground_energy(*clock.case_chain(5, T, mu)) for T, mu in points]
        ),
        "separation_walk_default": timed(
            lambda: phase.find_s_prime.__wrapped__(phase.SquareEnergyModel())
        ),
        "separation_walk_xi16_d1": timed(
            lambda: phase.find_s_prime.__wrapped__(phase.SquareEnergyModel(xi=16, poly_degree=1))
        ),
        "stages_omega34_1000": timed(lambda: stage_values(zoo_machine("omega34"), 1000)),
        "stages_bouncer_3000": timed(lambda: stage_values(BOUNCER, 3000)),
        "prefix_walk_reader": timed(lambda: walk_inputs(READER, 14)),
        "prefix_walk_reader_6568": timed(lambda: refused_walk(READER, 6568)),
        "prefix_check_zeros_then_one_6568": timed(lambda: walk_inputs(ZEROS_THEN_ONE, 6568)),
        "prefix_refuse_every_word_15": timed(lambda: refused_walk(EVERY_WORD, 15)),
        "import_cli_fresh_process": timed(import_cli),
    }
    for name, result in micro.items():
        peak = f", {result['peak_traced_mb']:.2f} MB traced" if "peak_traced_mb" in result else ""
        print(f"{name}: {result['median_s']:.4f} s (iqr {result['iqr_s']:.4f}){peak}", file=sys.stderr)
    report = {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": REPEATS,
        "configs": configs,
        "micro": micro,
    }
    Path(sys.argv[1]).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
