"""The benchmark's workloads: which omegaphase CLI runs each one makes,
and how every run's output is checked.

Sizes are fixed; the seed draws only values (a clock coupling mu, a QPE
phase, witness phases), so two seeds do the same amount of work.  Each
acceptance config is byte-compared with its committed artifacts under
`out/`; each seeded run is checked against an oracle that does not share
the code path under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Exact halting probabilities of the zoo machines the halting workload
# uses, from their halting sets ({"0", "11"} and {"0", "100"}).
OMEGA = {"omega34": Fraction(3, 4), "omega58": Fraction(5, 8)}
CLOCK_TOL = 1e-9
QPE_SUM_TOL = 1e-12


class Mismatch(Exception):
    """A CLI run's output disagrees with its reference."""


@dataclass(frozen=True)
class CliRun:
    name: str
    argv: tuple[str, ...]  # omegaphase CLI arguments, without --output-dir
    check: Callable[[Path], None]  # raises Mismatch


def _acceptance(root: Path, number: str) -> CliRun:
    (config,) = sorted((root / "configs").glob(f"acceptance_{number}_*.json"))
    command = json.loads(config.read_text(encoding="utf-8"))["command"]
    golden = root / "out" / f"acceptance_{number}"
    return CliRun(
        f"acceptance_{number}",
        (command, "--config", str(config.relative_to(root))),
        lambda out: check_golden(out, golden),
    )


def check_golden(out: Path, golden: Path) -> None:
    """Byte-compare every artifact with the committed one; in
    manifest.json only `output_dir` may differ."""
    produced = sorted(p.name for p in out.iterdir())
    expected = sorted(p.name for p in golden.iterdir())
    if produced != expected:
        raise Mismatch(f"{out.name}: files {produced} != committed {expected}")
    for name in expected:
        if name == "manifest.json":
            got = json.loads((out / name).read_text(encoding="utf-8"))
            want = json.loads((golden / name).read_text(encoding="utf-8"))
            got.pop("output_dir", None)
            want.pop("output_dir", None)
            if got != want:
                raise Mismatch(f"{out.name}/manifest.json differs from the committed one")
        elif (out / name).read_bytes() != (golden / name).read_bytes():
            raise Mismatch(f"{out.name}/{name} differs from the committed artifact")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise Mismatch(f"{path.name}: {err}") from err


def _clock_run(name: str, T: int, mu: float, method: str, oracle: Callable) -> CliRun:
    def check(out: Path) -> None:
        got = _read_json(out / "clock.json")
        want = oracle(T, mu)
        if got.get("T") != T or got.get("mu") != mu or got.get("method") != method:
            raise Mismatch(f"{name}: clock.json echoes {got.get('T')}, {got.get('mu')}, {got.get('method')}")
        if not abs(got["lambda0"] - want) <= CLOCK_TOL:
            raise Mismatch(f"{name}: lambda0 {got['lambda0']!r} vs case-5 root {want!r}")

    argv = ("clock", "-p", "mode=single", "-p", f"T={T}", "-p", f"mu={mu!r}", "-p", f"method={method}")
    return CliRun(name, argv, check)


def _qpe_distribution(k: int, den: int, n: int, m: int) -> CliRun:
    def check(out: Path) -> None:
        summary = _read_json(out / "qpe.json")
        with open(out / "qpe.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["z", "estimate", "probability"] or len(rows) != (1 << n) + 1:
            raise Mismatch(f"qpe.csv: bad header or {len(rows) - 1} rows for n={n}")
        probs = [float(r[2]) for r in rows[1:]]
        if abs(math.fsum(probs) - 1.0) > QPE_SUM_TOL:
            raise Mismatch(f"qpe.csv: probabilities sum to {math.fsum(probs)!r}")
        bound = 2.0 ** -(n - m)
        if not summary["tail_probability"] <= bound:
            raise Mismatch(f"qpe: tail {summary['tail_probability']} above {bound}")
        if not summary["success_probability"] >= 1.0 - bound:
            raise Mismatch(f"qpe: success {summary['success_probability']} below {1 - bound}")
        # Recount both from the CSV in integers: phi = k/den, estimate z/2^n.
        scale = den << n
        half_window = den << (n - m - 1)  # 2^-(m+1) on the den*2^n grid
        lo = (k << m) // den
        targets = {lo % (1 << m), (lo + 1) % (1 << m)} if (k << m) % den else {lo % (1 << m)}
        tail, success = [], []
        for z, p in enumerate(probs):
            dist = abs(z * den - (k << n)) % scale
            if min(dist, scale - dist) >= half_window:
                tail.append(p)
            if ((z + (1 << (n - m - 1))) >> (n - m)) % (1 << m) in targets:
                success.append(p)
        for label, recount in (("tail", tail), ("success", success)):
            if abs(math.fsum(recount) - summary[f"{label}_probability"]) > QPE_SUM_TOL:
                raise Mismatch(f"qpe: {label} {summary[f'{label}_probability']!r} vs recount {math.fsum(recount)!r}")

    argv = ("qpe", "-p", "mode=distribution", "-p", f"phi={k}/{den}", "-p", f"n={n}", "-p", f"m={m}")
    return CliRun(f"qpe_distribution_n{n}", argv, check)


def _sweep(machine: str, den: int) -> CliRun:
    want = sum(1 for j in range(1, den + 1) if Fraction(j, den) < OMEGA[machine])

    def check(out: Path) -> None:
        got = _read_json(out / "sweep.json")
        if got.get("gapless") != want or got.get("no_evidence") != den - want:
            raise Mismatch(f"sweep {machine}: gapless {got.get('gapless')}, want {want} of {den}")

    argv = ("sweep", "-p", f"machine=zoo:{machine}", "-p", f"grid_denominator={den}")
    return CliRun(f"sweep_{machine}", argv, check)


def _witness(machine: str, phi: Fraction, max_stage: int) -> CliRun:
    def check(out: Path) -> None:
        got = _read_json(out / "witness.json")
        halts = got.get("halted_at") is not None
        if halts != (phi < OMEGA[machine]) or got.get("budget_exceeded") == halts:
            raise Mismatch(f"witness {machine} phi={phi}: halted_at={got.get('halted_at')}")

    argv = (
        "witness", "-p", f"machine=zoo:{machine}", "-p", "mode=w",
        "-p", f"phi={phi.numerator}/{phi.denominator}", "-p", f"max_stage={max_stage}",
    )
    return CliRun(f"witness_{machine}", argv, check)


def build(name: str, seed: int, root: Path, clock_oracle: Callable[[int, float], float]) -> list[CliRun]:
    """The CLI runs of one workload repetition, with values drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "spectral":
        mu_sparse = round(rng.uniform(0.1, 0.9), 6)
        mu_dense = round(rng.uniform(0.1, 0.9), 6)
        return [_acceptance(root, c) for c in ("01", "02", "09", "10", "11")] + [
            _clock_run("clock_iterative_T200", 200, mu_sparse, "iterative", clock_oracle),
            _clock_run("clock_dense_T600", 600, mu_dense, "dense", clock_oracle),
        ]
    if name == "estimation_halting":
        # Witness phases are drawn where the work does not depend on them:
        # omega34 at phi >= 3/4 runs all 1000 stages; omega58 at
        # 1/2 <= phi < 5/8 halts at stage 12, when input "100" first halts.
        estimation = [_acceptance(root, c) for c in ("04", "06")] + [
            _qpe_distribution(rng.randrange(1, 257), 257, 18, 12)
        ]
        halting = [_acceptance(root, c) for c in ("07", "08", "12")] + [
            _sweep("omega58", 256),
            _witness("omega34", Fraction(rng.randrange(768, 1024), 1024), 1000),
            _witness("omega58", Fraction(rng.randrange(512, 640), 1024), 600),
        ]
        return estimation + halting
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("spectral", "estimation_halting")
