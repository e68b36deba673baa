#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs two cheap CLI runs through the benchmark's own path (`run.run_cli`)
and tampers with their outputs before the check: a corrupted artifact, a
missing artifact, a changed manifest field and a flipped witness verdict
must each be counted as a failure, while untouched outputs and a manifest
that differs only in `output_dir` must pass.  Exits 1 if any case is
judged wrongly.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench
import workloads
from workloads import CliRun


def tampered(run: CliRun, tamper) -> CliRun:
    def check(out: Path) -> None:
        tamper(out)
        run.check(out)

    return CliRun(run.name, run.argv, check)


def flip_byte(name: str):
    def tamper(out: Path) -> None:
        data = bytearray((out / name).read_bytes())
        data[len(data) // 2] ^= 1
        (out / name).write_bytes(bytes(data))

    return tamper


def set_json(name: str, key: str, value):
    def tamper(out: Path) -> None:
        payload = json.loads((out / name).read_text(encoding="utf-8"))
        payload[key] = value
        (out / name).write_text(json.dumps(payload), encoding="utf-8")

    return tamper


def main() -> int:
    runs = {
        r.name: r
        for w in workloads.WORKLOADS
        for r in workloads.build(w, 0, bench.ROOT, bench.clock_oracle)
    }
    compose, witness = runs["acceptance_11"], runs["witness_omega58"]
    cases = [
        ("untouched acceptance_11", compose, True),
        ("manifest differing only in output_dir", tampered(compose, set_json("manifest.json", "output_dir", "elsewhere")), True),
        ("one flipped byte in compose.csv", tampered(compose, flip_byte("compose.csv")), False),
        ("missing compose.json", tampered(compose, lambda out: (out / "compose.json").unlink()), False),
        ("changed manifest format", tampered(compose, set_json("manifest.json", "format", "json")), False),
        ("untouched omega58 witness", witness, True),
        ("flipped witness verdict", tampered(witness, set_json("witness.json", "halted_at", None)), False),
    ]
    (bench.ROOT / bench.WORK).mkdir(exist_ok=True)
    try:
        results = [bench.run_cli(run, False, bench.child_env()) for _, run, _ in cases]
    finally:
        shutil.rmtree(bench.ROOT / bench.WORK, ignore_errors=True)
    wrong = 0
    for (label, _, should_pass), result in zip(cases, results):
        passed = result["error"] is None
        wrong += passed != should_pass
        verdict = "ok" if passed == should_pass else "WRONG"
        print(f"{verdict:5} {label}: {'passed' if passed else 'failed: ' + result['error']}")
    failed = sum(r["error"] is not None for r in results)
    print(f"failed_share {failed / len(results):.4f} ({failed} of {len(results)} CLI runs)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
