"""Batch front end: reproducible experiments from a config file or flags,
with CSV/JSON artifacts published together, and only when the run succeeds.

No interactive mode and no environment variables: every run takes a
fully resolved configuration, echoes it into ``manifest.json``, and
produces byte-identical outputs on identical configs.  Exit codes: 0 on
success (budget exhaustion is a successful no-evidence result), 2 for
unreadable inputs (files, config, machine or spec parse errors), 3 for
constraint violations (parameters outside their stated ranges).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import typing
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import chaitin, clock, phase, qpe
from .dyadic import truncate
from .errors import BracketError, ParseError, SeparationError
from .tm import MachineSpec, load_machine, walk_inputs
from .zoo import ZOO, zoo_machine

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSTRAINT = 3

REQUIRED = object()
ABSENT = object()
# SquareEnergyModel's constants, read by both sweep modes; an absent one
# keeps the model's own default.
_MODEL_PARAMS = {
    "xi": (int, ABSENT), "c1": (Fraction, ABSENT), "c2": (Fraction, ABSENT),
    "comp_upper_k": (Fraction, ABSENT), "poly_degree": (int, ABSENT),
    "s_max_checked": (int, ABSENT),
}
# The parameters of each command and mode, each as (kind, default), the
# default being a value, REQUIRED, or ABSENT (the runner gets None).  A
# command's first mode is its default, and "" marks a command without
# modes.  Any other key, one of another mode included, is a config error.
PARAM_KEYS = {
    "omega": {
        "": {"machine": (str, REQUIRED), "stage": (int, REQUIRED), "include_sequence": (bool, False)},
    },
    "witness": {
        "w": {"machine": (str, REQUIRED), "phi": (Fraction, REQUIRED), "max_stage": (int, REQUIRED)},
        "wprime": {"machine": (str, REQUIRED), "phibar": (str, REQUIRED), "m": (int, REQUIRED)},
    },
    "qpe": {
        "distribution": {"phi": (Fraction, REQUIRED), "n": (int, REQUIRED), "m": (int, ABSENT)},
        "grid": {"grid_denominator": (int, 257), "n_max": (int, 14)},
        "rounding": {"n_max": (int, 12)},
    },
    "clock": {
        "single": {
            "method": (str, "dense"), "spec_file": (str, ABSENT),
            "T": (int, REQUIRED), "mu": (float, REQUIRED),
        },
        "cases": {"t_min": (int, 1), "t_max": (int, 200)},
        "grid": {
            "t_values": (list[int], list(range(2, 65))),
            "mu_values": (list[float], [round(0.1 * k, 1) for k in range(1, 10)]),
        },
        "jordan": {"dim": (int, 8), "trials": (int, 50), "seed": (int, 0)},
    },
    "sweep": {
        "classify": {
            "machine": (str, REQUIRED), "phis": (list[Fraction], ABSENT),
            "grid_denominator": (int, REQUIRED), "s_budget": (typing.Literal["auto"] | int, "auto"),
            **_MODEL_PARAMS,
        },
        "schedule": {"n_max": (int, 10_000), **_MODEL_PARAMS},
    },
    "spectrum": {
        "xy": {"lengths": (list[int], [4, 8, 16, 32, 64]), "levels_for": (int, ABSENT)},
        "compose": {
            "uu": (list[Fraction], REQUIRED), "dense": (list[Fraction], REQUIRED),
            "trivial": (list[Fraction], REQUIRED), "beta": (Fraction, REQUIRED),
        },
    },
}
# Two groups of keys that a mode reads in place of each other: giving keys
# of both is a config error, and once one group is given the other's
# required keys are not required.
_ALTERNATIVES = {
    ("clock", "single"): ({"spec_file"}, {"T", "mu"}),
    ("sweep", "classify"): ({"phis"}, {"grid_denominator"}),
}
COMMANDS = tuple(PARAM_KEYS)


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    command: str
    output_dir: str
    format: str = "json"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a JSON object")

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "format": self.format,
            "output_dir": self.output_dir,
            "params": self.params,
        }

    @classmethod
    def from_file(cls, path: str, **flags: str | None) -> "RunConfig":
        """The run a config file describes, each flag given (not empty)
        replacing the file's value before the whole is checked."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update((key, value) for key, value in flags.items() if value)
        return cls(
            command=data.get("command", ""),
            output_dir=data.get("output_dir", ""),
            format=data.get("format", "json"),
            params=data.get("params", {}),
        )


def _signed_log2(x: Fraction) -> float:
    if x == 0:
        return 0.0
    mag = math.log2(abs(x.numerator)) - math.log2(x.denominator)
    return mag if x > 0 else -mag


def _exact_strings(values: Iterable[Fraction]) -> dict[Fraction, str]:
    """str() of each distinct rational, formatted once.  The interpreter's
    limit on int-to-str digits is lifted around the conversion and then
    restored: an energy bound passes 4,300 digits at large square sides."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return {value: str(value) for value in set(values)}
    finally:
        sys.set_int_max_str_digits(limit)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cell(value: object) -> str:
    """One table cell: a float to 17 significant digits, None as an empty
    field, anything else as str() prints it."""
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _write_table(path: Path, rows: Iterable[Sequence], sep: str = ",") -> None:
    """One line of cells per row, streamed, every line ended by a newline;
    a CSV's first row is its header, and no rows at all leave one empty
    line."""
    lines = (sep.join(map(_cell, row)) for row in rows)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(next(lines, "") + "\n")
        fh.writelines(line + "\n" for line in lines)


def _write_qpe_csv(path: Path, n: int, probabilities: np.ndarray) -> None:
    """The rows z, z/2^n and Pr[z] of a distribution, written in blocks of
    2^min(n, 12) rows, each formatted by one %-format of the whole block;
    z/2^n prints in lowest terms as a Fraction prints it, and a
    probability as _cell does.

    The estimates are integer fields, filled per block.  A block starts at
    a multiple of its length, so z = start + i with 0 < i < rows shares
    with 2^n the power of two in i: its numerator is z shifted by that
    power and its denominator comes from one table.  The first row reduces
    by the power of two in start, and z = 0 prints 0.
    """
    rows = 1 << min(n, 12)
    shifts = [(i & -i).bit_length() - 1 for i in range(1, rows)]
    template = "%d,%s,%.17g\n" + "%d,%d/%d,%.17g\n" * (rows - 1)
    fields: list = [None] * (4 * rows - 1)
    fields[5::4] = [1 << (n - k) for k in shifts]
    with path.open("w", encoding="utf-8") as fh:
        fh.write("z,estimate,probability\n")
        for start in range(0, 1 << n, rows):
            stop = start + rows
            shift = (start & -start).bit_length() - 1
            fields[0] = start
            fields[1] = f"{start >> shift}/{1 << (n - shift)}" if start else "0"
            fields[3::4] = range(start + 1, stop)
            fields[4::4] = [z >> k for z, k in zip(range(start + 1, stop), shifts)]
            fields[2::4] = probabilities[start:stop].tolist()
            fh.write(template % tuple(fields))


def _load_machine_ref(ref: str) -> MachineSpec:
    if ref.startswith("zoo:"):
        name = ref.removeprefix("zoo:")
        if name not in ZOO:
            raise ConfigError(f"unknown zoo machine {name!r}; known: {sorted(ZOO)}")
        return zoo_machine(name)
    return load_machine(ref)


# What each scalar kind accepts.  A text key also takes a number and reads
# it as its text (phibar=1000000 arrives as a JSON integer); a rational
# reads a JSON number as the decimal it prints as (0.11 is 11/100).
_ACCEPTS = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: ((str, int, float), "a string or a number"),
    Fraction: ((str, int, float), "a rational number"),
}


def _read(key: str, value: object, kind):
    """One parameter value read as its kind: int, float, bool, str,
    Fraction, list[...] of one of them, or Literal[word] | kind.  Bools
    are not numbers here.  A value of the wrong type is a config error."""
    origin = typing.get_origin(kind)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"parameter {key!r} must be a list, got {value!r}")
        (item,) = typing.get_args(kind)
        return [_read(key, v, item) for v in value]
    if origin is typing.Union:
        word, other = typing.get_args(kind)
        return value if value in typing.get_args(word) else _read(key, value, other)
    accepts, name = _ACCEPTS[kind]
    if not isinstance(value, accepts) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"parameter {key!r} must be {name}, got {value!r}")
    try:
        if kind is Fraction:
            return Fraction(repr(value) if isinstance(value, float) else value)
        return kind(value)
    except (ValueError, ZeroDivisionError, OverflowError):  # "abc", "1/0", 10**400 as a float
        raise ConfigError(f"parameter {key!r} must be {name}, got {value!r}") from None


def _resolve(command: str, mode: str, params: dict) -> dict:
    """Every key of the mode mapped to its value read as its kind, to its
    default, or to None; a missing required key is a config error."""
    table = PARAM_KEYS[command][mode]
    given = {key: _read(key, params[key], kind) for key, (kind, _) in table.items() if key in params}
    first, second = _ALTERNATIVES.get((command, mode), (set(), set()))
    if first & given.keys() and second & given.keys():
        raise ConfigError(
            f"parameters {sorted((first | second) & given.keys())} exclude each other: "
            f"give {sorted(first)} or {sorted(second)}"
        )
    waived = second if first & given.keys() else first if second & given.keys() else set()
    missing = [
        key for key, (_, default) in table.items()
        if default is REQUIRED and key not in given and key not in waived
    ]
    if missing:
        raise ConfigError(f"missing required parameter(s) {missing}")
    return {
        key: given[key] if key in given else None if default in (REQUIRED, ABSENT) else default
        for key, (_, default) in table.items()
    }


# -- command implementations -------------------------------------------


def _run_omega(p: dict, mode: str, fmt: str, out: Path) -> None:
    machine = _load_machine_ref(p["machine"])
    stage = p["stage"]
    approx = chaitin.omega_approx(walk_inputs(machine, stage), stage)
    _write_json(out / "omega.json", approx.report())
    if p["include_sequence"] or fmt == "csv":
        rows = [(s, value, truncate(value, s)) for s, value in enumerate(approx.stage_values, start=1)]
        _write_table(out / "omega_stages.csv", [("stage", "omega_s", "omega_s_trunc_s"), *rows])


def _run_witness(p: dict, mode: str, fmt: str, out: Path) -> None:
    machine = _load_machine_ref(p["machine"])
    if mode == "w":
        phi, max_stage = p["phi"], p["max_stage"]
        halted_at = chaitin.witness_w(walk_inputs(machine, max_stage), phi, max_stage)
        payload = {
            "machine": machine.name,
            "mode": "w",
            "phi": str(phi),
            "max_stage": max_stage,
            "halted_at": halted_at,
            "budget_exceeded": halted_at is None,
        }
    else:
        phibar, m = p["phibar"], p["m"]
        halts = chaitin.witness_wprime(walk_inputs(machine, m), phibar, m)
        payload = {
            "machine": machine.name,
            "mode": "wprime",
            "phibar": phibar,
            "m": m,
            "halts": halts,
        }
    _write_json(out / "witness.json", payload)


def _run_qpe(p: dict, mode: str, fmt: str, out: Path) -> None:
    if mode == "distribution":
        n, m = p["n"], p["m"]
        dist = qpe.qpe_distribution(p["phi"], n)
        _write_qpe_csv(out / "qpe.csv", n, dist.probabilities)
        summary: dict = {"phi": str(dist.phi), "n": n, "exact": dist.exact}
        if m is not None:
            tail, success = qpe.tail_and_success(dist, m)
            if tail is not None:
                summary["tail_probability"] = tail
                summary["tail_bound"] = 2.0 ** -(n - m)
            summary["m"] = m
            summary["success_probability"] = success
            summary["success_bound"] = 1.0 - 2.0 ** -(n - m)
        _write_json(out / "qpe.json", summary)
    elif mode == "grid":
        den, n_max = p["grid_denominator"], p["n_max"]
        scan = qpe.bound_scan([Fraction(k, den) for k in range(1, den)], n_max)
        _write_table(
            out / "qpe_grid.csv",
            [("n", "max_tail_over_bound", "min_success_margin"), *(row[:3] for row in scan)],
        )
        _write_json(
            out / "qpe_grid.json",
            {"grid_denominator": den, "n_max": n_max, "violations": sum(row[3] for row in scan)},
        )
    else:
        n_max = p["n_max"]
        checked, violations = qpe.rounding_lemma_scan(n_max)
        _write_json(
            out / "rounding.json",
            {"n_max": n_max, "checked_pairs": checked, "violations": violations},
        )


def _run_clock(p: dict, mode: str, fmt: str, out: Path) -> None:
    if mode == "single":
        if p["spec_file"] is not None:
            spec = clock.read_clock_spec(p["spec_file"])
        else:
            spec = clock.case5_spec(p["T"], p["mu"])
        report = clock.ground_energy(spec, method=p["method"])
        _write_json(
            out / "clock.json",
            {
                "lambda0": report.lambda0,
                "lambda1": report.lambda1,
                "gap": report.gap,
                "residual": report.residual,
                "method": report.method,
                "T": spec.T,
                "mu": p["mu"],
                "epsilon": clock.compute_epsilon(spec),
            },
        )
    elif mode == "cases":
        t_min, t_max = p["t_min"], p["t_max"]
        if t_min < 1:
            raise ValueError(f"t_min must be >= 1, got {t_min}")
        if t_min > t_max:
            raise ValueError(f"empty scan: t_min={t_min} > t_max={t_max}")
        rows: list[tuple] = [("T", "case", "closed_form", "dense", "abs_err")]
        worst = 0.0
        for T in range(t_min, t_max + 1):
            for tag in (2, 4):
                closed = clock.case_eigenvalue(tag, T)
                dense = clock.chain_ground_energy(*clock.case_chain(tag, T))
                err = abs(closed - dense)
                worst = max(worst, err)
                rows.append((T, tag, closed, dense, err))
        _write_table(out / "clock_cases.csv", rows)
        _write_json(out / "clock_cases.json", {"t_min": t_min, "t_max": t_max, "max_abs_err": worst})
    elif mode == "grid":
        rows_data = clock.gap_law_grid(p["t_values"], p["mu_values"])
        header = ("T", "mu", "root_count", "k0", "lambda0_root", "lambda0_dense", "epsilon", "gap_ratio", "k0_scaled")
        _write_table(out / "clock_grid.csv", [header, *([r[key] for key in header] for r in rows_data)])
        ratios = [r["gap_ratio"] for r in rows_data]
        scaled = [r["k0_scaled"] for r in rows_data]
        _write_json(
            out / "clock_grid.json",
            {
                "gap_ratio_min": min(ratios),
                "gap_ratio_max": max(ratios),
                "k0_scaled_min": min(scaled),
                "k0_scaled_max": max(scaled),
                "points": len(rows_data),
            },
        )
    else:
        dim, trials, seed = p["dim"], p["trials"], p["seed"]
        case_counts, worst_recon, worst_eps = clock.jordan_scan(
            dim, trials, np.random.default_rng(seed)
        )
        _write_json(
            out / "jordan.json",
            {
                "dim": dim,
                "trials": trials,
                "seed": seed,
                "case_counts": {str(k): count for k, count in case_counts.items()},
                "max_reconstruction_error": worst_recon,
                "max_epsilon_mu_error": worst_eps,
            },
        )


def _run_sweep(p: dict, mode: str, fmt: str, out: Path) -> None:
    model = phase.SquareEnergyModel(**{key: p[key] for key in _MODEL_PARAMS if p[key] is not None})
    if mode == "schedule":
        n_max = p["n_max"]
        constraint_ok, monotone = phase.schedule_scan(n_max)
        _write_json(
            out / "schedule.json",
            {
                "n_max": n_max,
                "constraint_ok": constraint_ok,
                "monotone": monotone,
                "s_prime": phase.find_s_prime(model),
                "s_max_checked": model.s_max_checked,
            },
        )
        return
    den = p["grid_denominator"]
    if den is not None:
        if den < 1:
            raise ValueError(f"parameter 'grid_denominator' must be >= 1, got {den}")
        grid = [Fraction(k, den) for k in range(1, den + 1)]
    else:
        grid = p["phis"]
    machine = _load_machine_ref(p["machine"])
    s_prime = phase.find_s_prime(model)
    s_budget = s_prime + 1 if p["s_budget"] == "auto" else p["s_budget"]
    results = phase.sweep(grid, walk_inputs(machine, s_budget), model)
    bounds = _exact_strings(b for r in results for b in (r.energy.lo, r.energy.hi))
    _write_table(
        out / "sweep.csv",
        [
            ("phi", "classification", "witness_scale", "first_negative_s", "energy_lower_bound", "energy_upper_bound"),
            *(
                (r.phi, r.classification, r.witness_scale, r.first_negative_s, bounds[r.energy.lo], bounds[r.energy.hi])
                for r in results
            ),
        ],
    )
    sectors = [(float(r.phi), phase.order_parameter(r.gapless)) for r in results]
    _write_table(out / "phi_vs_class.dat", sectors, sep=" ")
    trace = [(s, interval) for r in results for s, interval in r.trace]
    # phases share one interval object per (side, regime): key by identity,
    # as hashing an interval would hash its Fractions of up to 2Cs bits
    distinct = {id(i): i for _, i in trace}
    logs = {key: (_cell(_signed_log2(i.lo)), _cell(_signed_log2(i.hi))) for key, i in distinct.items()}
    _write_table(out / "s_vs_energy_lower_log2.dat", [(s, logs[id(i)][0]) for s, i in trace], sep=" ")
    _write_table(out / "s_vs_energy_upper_log2.dat", [(s, logs[id(i)][1]) for s, i in trace], sep=" ")
    _write_json(
        out / "sweep.json",
        {
            "machine": machine.name,
            "s_prime": s_prime,
            "s_budget": s_budget,
            "gapless": sum(1 for r in results if r.gapless),
            "no_evidence": sum(1 for r in results if not r.gapless),
        },
    )


def _run_spectrum(p: dict, mode: str, fmt: str, out: Path) -> None:
    if mode == "xy":
        if not p["lengths"]:
            raise ValueError("empty scan: lengths is empty")
        rows: list[tuple] = [("L", "ground_energy", "gap")]
        for L in p["lengths"]:
            spec = phase.xy_chain_spectrum(L)
            rows.append((L, spec.ground_energy, spec.gap))
        _write_table(out / "xy.csv", rows)
        L = p["levels_for"]
        if L is not None:
            spec = phase.xy_chain_spectrum(L)
            levels = spec.many_body() if L <= 16 else spec.many_body(max_levels=64)
            _write_table(out / "xy_levels.csv", [("index", "energy"), *enumerate(levels)])
    else:
        composed = phase.compose_total_spectrum(p["uu"], p["dense"], p["trivial"], p["beta"])
        _write_table(out / "compose.csv", [("energy", "origin"), *composed.entries])
        _write_json(
            out / "compose.json",
            {
                "lambda0": str(composed.lambda0),
                "lambda1": str(composed.lambda1),
                "gap": str(composed.gap),
                "ground_origin": composed.ground_origin,
                "order_parameter": phase.order_parameter(composed.ground_origin == "uu_dense"),
            },
        )


_RUNNERS = {
    "omega": _run_omega,
    "witness": _run_witness,
    "qpe": _run_qpe,
    "clock": _run_clock,
    "sweep": _run_sweep,
    "spectrum": _run_spectrum,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; artifacts land in its output_dir.

    Every artifact and the manifest are written to a staging directory
    in output_dir's nearest existing ancestor and moved into output_dir,
    created with its missing parents, only when the run succeeds, so a
    failed run creates no directory and leaves no partial files.
    """
    modes = PARAM_KEYS[cfg.command]
    mode = cfg.params.get("mode", next(iter(modes))) if "" not in modes else ""
    if not isinstance(mode, str) or mode not in modes:
        raise ConfigError(f"{cfg.command} mode must be one of {list(modes)}, got {mode!r}")
    known = modes[mode].keys() | ({"mode"} if mode else set())
    unknown = sorted(set(cfg.params) - known)
    if unknown:
        where = f"{cfg.command} mode {mode!r}" if mode else cfg.command
        raise ConfigError(f"parameter(s) {unknown} not read by {where}; known: {sorted(known)}")
    p = _resolve(cfg.command, mode, cfg.params)
    out = Path(cfg.output_dir)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output_dir {str(out)!r} exists and is not a directory")
    anchor = out.parent
    while not anchor.exists():
        anchor = anchor.parent
    with tempfile.TemporaryDirectory(prefix=f".{out.name}-", dir=anchor) as staging:
        staged = Path(staging)
        _RUNNERS[cfg.command](p, mode, cfg.format, staged)
        _write_json(staged / "manifest.json", cfg.manifest())
        out.mkdir(parents=True, exist_ok=True)
        for path in sorted(staged.iterdir()):
            os.replace(path, out / path.name)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegaphase",
        description="Batch experiments: staged halting probabilities, witnesses, "
        "phase-estimation bounds, clock spectra, phase sweeps, reference spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file with the full run")
        p.add_argument("--output-dir", help="artifact directory")
        p.add_argument("--format", choices=("csv", "json"), help="preferred table format")
        p.add_argument(
            "--param",
            "-p",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set one parameter (JSON value or bare string); repeatable",
        )
    return parser


def _parse_param(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"--param needs KEY=VALUE, got {item!r}")
    key, _, raw = item.partition("=")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = RunConfig.from_file(args.config, output_dir=args.output_dir, format=args.format)
            if cfg.command != args.command:
                raise ConfigError(
                    f"config command {cfg.command!r} does not match subcommand {args.command!r}"
                )
        else:
            cfg = RunConfig(command=args.command, output_dir=args.output_dir or "", format=args.format or "json")
        for item in args.param:
            key, value = _parse_param(item)
            cfg.params[key] = value
        return run(cfg)
    except (ConfigError, ParseError, OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, SeparationError, BracketError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    raise SystemExit(main())
