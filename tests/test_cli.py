"""Front-end behaviour: config resolution, manifest round-trip,
deterministic artifacts, and exit-code discipline."""

import csv
import json
import shlex
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import square_energy_formula, sweep_oracle

from omegaphase import cli, clock, errors, phase
from omegaphase.cli import (
    EXIT_CONSTRAINT, EXIT_OK, EXIT_PARSE, PARAM_KEYS, REQUIRED, ConfigError, RunConfig,
    _read, main, run,
)
from omegaphase.chaitin import omega_stage_values, witness_wprime
from omegaphase.clock import ClockSpecParseError
from omegaphase.errors import ParseError
from omegaphase.phase import SquareEnergyModel
from omegaphase.qpe import qpe_distribution
from omegaphase.tm import MachineParseError, walk_inputs
from omegaphase.zoo import zoo_machine, zoo_machine_text


def read_json(path):
    return json.loads(path.read_text())


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="nope", output_dir="x")
    with pytest.raises(ValueError):
        RunConfig(command="omega", output_dir="x", format="xml")
    with pytest.raises(ValueError):
        RunConfig(command="omega", output_dir="")


def test_omega_outputs_and_manifest_round_trip(tmp_path):
    out = tmp_path / "run"
    cfg = RunConfig(
        command="omega",
        output_dir=str(out),
        format="csv",
        params={"machine": "zoo:omega34", "stage": 9},
    )
    assert run(cfg) == EXIT_OK
    report = read_json(out / "omega.json")
    assert report["omega_s"] == "3/4"
    assert report["halting_inputs"] == ["0", "11"]
    stages = (out / "omega_stages.csv").read_text().splitlines()
    assert stages[0] == "stage,omega_s,omega_s_trunc_s"
    assert len(stages) == 10
    manifest = read_json(out / "manifest.json")
    rebuilt = RunConfig(**manifest)
    assert rebuilt == cfg


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = RunConfig(
            command="qpe",
            output_dir=str(out),
            params={"phi": "1/3", "n": 8, "m": 4},
        )
        assert run(cfg) == EXIT_OK
        outputs.append(
            [(out / f).read_bytes() for f in ("qpe.csv", "qpe.json", "manifest.json")]
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_witness_modes(tmp_path):
    cfg = RunConfig(
        command="witness",
        output_dir=str(tmp_path / "w"),
        params={"machine": "zoo:omega34", "phi": "3/4", "max_stage": 200},
    )
    assert run(cfg) == EXIT_OK
    payload = read_json(tmp_path / "w" / "witness.json")
    assert payload["budget_exceeded"] is True and payload["halted_at"] is None

    cfg = RunConfig(
        command="witness",
        output_dir=str(tmp_path / "wp"),
        params={"machine": "zoo:omega34", "mode": "wprime", "phibar": "1000000", "m": 7},
    )
    assert run(cfg) == EXIT_OK
    assert read_json(tmp_path / "wp" / "witness.json")["halts"] is True


def test_machine_file_path(tmp_path):
    path = tmp_path / "m.tm"
    path.write_text(zoo_machine_text("halt_on_zero"))
    cfg = RunConfig(
        command="omega",
        output_dir=str(tmp_path / "out"),
        params={"machine": str(path), "stage": 4},
    )
    assert run(cfg) == EXIT_OK
    assert read_json(tmp_path / "out" / "omega.json")["omega_s"] == "1/2"


def test_clock_single_report(tmp_path):
    import math

    from omegaphase.clock import root_solve_case5

    cfg = RunConfig(
        command="clock",
        output_dir=str(tmp_path / "c"),
        params={"T": 3, "mu": 0.5},
    )
    assert run(cfg) == EXIT_OK
    payload = read_json(tmp_path / "c" / "clock.json")
    assert set(payload) >= {"T", "mu", "epsilon", "lambda0", "lambda1", "residual", "method"}
    assert abs(payload["epsilon"] - 0.5) < 1e-9
    k0 = root_solve_case5([(3, 0.5)])[0].k0
    assert abs(payload["lambda0"] - (2 - 2 * math.cos(k0))) < 1e-9


def test_spectrum_compose_and_xy(tmp_path):
    cfg = RunConfig(
        command="spectrum",
        output_dir=str(tmp_path / "sp"),
        params={
            "mode": "compose",
            "uu": ["0", "2"],
            "dense": ["0", "1"],
            "trivial": ["-8", "-7"],
            "beta": "1/3",
        },
    )
    assert run(cfg) == EXIT_OK
    payload = read_json(tmp_path / "sp" / "compose.json")
    assert payload["gap"] == "1" and payload["order_parameter"] == 1
    cfg = RunConfig(
        command="spectrum",
        output_dir=str(tmp_path / "xy"),
        params={"mode": "xy", "lengths": [4, 8], "levels_for": 4},
    )
    assert run(cfg) == EXIT_OK
    rows = (tmp_path / "xy" / "xy_levels.csv").read_text().splitlines()
    assert len(rows) == 17  # header + 2^4 levels


def test_sweep_empty_grid_header_only(tmp_path):
    cfg = RunConfig(
        command="sweep",
        output_dir=str(tmp_path / "sw"),
        params={"machine": "zoo:omega34", "phis": [], "s_budget": "auto"},
    )
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines == [
        "phi,classification,witness_scale,first_negative_s,energy_lower_bound,energy_upper_bound"
    ]
    for name in ("phi_vs_class.dat", "s_vs_energy_lower_log2.dat", "s_vs_energy_upper_log2.dat"):
        assert (tmp_path / "sw" / name).read_bytes() == b"\n"


def test_sweep_without_a_grid_refused(tmp_path, capsys):
    # neither phis nor grid_denominator: no phase to sweep is a config error,
    # not an empty sweep; phis=[] above still names an empty grid
    out = tmp_path / "sw"
    assert main(["sweep", "--output-dir", str(out), "-p", "machine=zoo:omega34"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: missing required parameter(s) ['grid_denominator']\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_small_grid(tmp_path):
    cfg = RunConfig(
        command="sweep",
        output_dir=str(tmp_path / "sw"),
        params={"machine": "zoo:omega34", "grid_denominator": 4, "s_budget": "auto"},
    )
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    summary = read_json(tmp_path / "sw" / "sweep.json")
    assert summary["gapless"] == 2  # 1/4 and 1/2; 3/4 and 1 stay gapped
    assert (tmp_path / "sw" / "phi_vs_class.dat").exists()


def test_sweep_takes_log2_once_per_interval(tmp_path, monkeypatch):
    energies, logs = [], []
    real_energy, real_log2 = phase.square_energy, cli._signed_log2
    monkeypatch.setattr(phase, "square_energy", lambda *args: energies.append(args) or real_energy(*args))
    monkeypatch.setattr(cli, "_signed_log2", lambda x: logs.append(x) or real_log2(x))
    out = tmp_path / "sw"
    argv = ["sweep", "--output-dir", str(out), "-p", "machine=zoo:omega34",
            "-p", "grid_denominator=16", "-p", "s_budget=6577"]
    assert main(argv) == EXIT_OK
    rows = (out / "s_vs_energy_lower_log2.dat").read_text().splitlines()
    assert len(rows) > 5 * len(energies)  # the phases share each (side, regime)
    assert len(logs) == 2 * len(energies)  # a lower and an upper bound per distinct interval


def test_sweep_bounds_past_the_int_digit_limit(tmp_path):
    # at s_budget=7500 the no-evidence rows' energy bounds have over 4,300
    # digits, past the interpreter's default limit for int-to-str
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "sw"
    argv = ["sweep", "--output-dir", str(out), "-p", "machine=zoo:omega34",
            "-p", "grid_denominator=4", "-p", "s_budget=7500"]
    assert main(argv) == EXIT_OK
    assert sys.get_int_max_str_digits() == limit
    model = SquareEnergyModel()
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["classification"] for row in rows] == [
        "gapless_evidence(6567)", "gapless_evidence(6567)", "no_evidence(7500)", "no_evidence(7500)",
    ]
    assert max(len(row["energy_upper_bound"]) for row in rows) > 4300
    for row in rows:
        s = int(row["witness_scale"] or 7500)
        regime = "halting" if row["witness_scale"] else "nonhalting"
        sys.set_int_max_str_digits(0)
        try:
            got = Fraction(row["energy_lower_bound"]), Fraction(row["energy_upper_bound"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == square_energy_formula(model, s, regime, marked=True), row["phi"]  # s' = 6567


def test_main_exit_codes(tmp_path):
    assert (
        main(
            [
                "omega",
                "--output-dir",
                str(tmp_path / "ok"),
                "-p",
                "machine=zoo:omega34",
                "-p",
                "stage=5",
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "omega",
                "--output-dir",
                str(tmp_path / "bad"),
                "-p",
                "machine=zoo:missing",
                "-p",
                "stage=5",
            ]
        )
        == EXIT_PARSE
    )
    assert (
        main(
            ["qpe", "--output-dir", str(tmp_path / "bad2"), "-p", "phi=1/3", "-p", "n=99"]
        )
        == EXIT_CONSTRAINT
    )


def test_config_file_flow(tmp_path):
    config = {
        "command": "omega",
        "output_dir": str(tmp_path / "from_file"),
        "format": "json",
        "params": {"machine": "zoo:omega58", "stage": 12},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["omega", "--config", str(path)]) == EXIT_OK
    assert read_json(tmp_path / "from_file" / "omega.json")["omega_s"] == "5/8"
    assert main(["witness", "--config", str(path)]) == EXIT_PARSE  # command mismatch


@pytest.mark.parametrize(
    "file_value,flag,code",
    [
        (5, None, EXIT_PARSE),  # not a string: a config error, not a traceback
        ("", None, EXIT_PARSE),
        (None, "out", EXIT_OK),  # no output_dir in the file: the flag supplies it
        (5, "out", EXIT_OK),  # the flag replaces the file's value before the check
    ],
    ids=["int", "empty", "absent-flag", "int-flag"],
)
def test_output_dir_checked_after_the_flags(tmp_path, capsys, file_value, flag, code):
    config = {"command": "omega", "params": {"machine": "zoo:omega34", "stage": 3}}
    if file_value is not None:
        config["output_dir"] = file_value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    argv = ["omega", "--config", str(path)]
    if flag:
        argv += ["--output-dir", str(tmp_path / flag)]
    assert main(argv) == code
    if code == EXIT_OK:
        assert read_json(tmp_path / flag / "manifest.json")["output_dir"] == str(tmp_path / flag)
    else:
        assert "output_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "argv,name",
    [
        (["omega", "--config", "{bad}", "--output-dir", "{run}"], "run.json"),
        (["omega", "--output-dir", "{run}", "-p", "machine={bad}", "-p", "stage=3"], "m.tm"),
        (["clock", "--output-dir", "{run}", "-p", "spec_file={bad}"], "s.clock"),
    ],
    ids=["config", "machine", "spec_file"],
)
def test_undecodable_file_exits_parse(tmp_path, capsys, argv, name):
    bad = tmp_path / name
    bad.write_bytes(b"start: q\xff\n")
    assert main([arg.format(bad=bad, run=tmp_path / "run") for arg in argv]) == EXIT_PARSE
    assert "utf-8" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("word", ["012", "1_0", " 10"])
def test_phibar_outside_binary_words_refused(tmp_path, capsys, word):
    # int(word, 2) would read "1_0" and " 10" as 2; the word itself is checked
    with pytest.raises(ValueError, match="phibar"):
        witness_wprime(walk_inputs(zoo_machine("omega34"), 2), word, 2)
    params = {"machine": "zoo:omega34", "phibar": word, "m": 2}
    assert _run_from_file(tmp_path, "witness", "wprime", params) == EXIT_CONSTRAINT
    assert repr(word) in capsys.readouterr().err


REPO = Path(__file__).resolve().parent.parent


def test_checked_in_configs_resolve(tmp_path):
    config_dir = REPO / "configs"
    paths = sorted(config_dir.glob("acceptance_*.json"))
    assert len(paths) == 12
    for path in paths:
        cfg = RunConfig.from_file(path)
        assert cfg.command in ("omega", "witness", "qpe", "clock", "sweep", "spectrum")
    # smoke-run the cheap ones end to end
    for name in ("acceptance_07_omega_limit", "acceptance_11_composition"):
        cfg = RunConfig.from_file(config_dir / f"{name}.json")
        cfg.output_dir = str(tmp_path / name)
        assert run(cfg) == EXIT_OK


@pytest.mark.parametrize("number", [f"{n:02d}" for n in range(1, 13)])
def test_cheap_configs_reproduce_committed_artifacts(tmp_path, number):
    (path,) = (REPO / "configs").glob(f"acceptance_{number}_*.json")
    golden = REPO / "out" / f"acceptance_{number}"
    cfg = RunConfig.from_file(path)
    cfg.output_dir = str(tmp_path)
    assert run(cfg) == EXIT_OK
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == sorted(p.name for p in golden.iterdir())
    for name in produced:
        if name == "manifest.json":
            got, want = read_json(tmp_path / name), read_json(golden / name)
            assert got.pop("output_dir") == str(tmp_path)
            want.pop("output_dir")
            assert got == want
        else:
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_omega_artifacts_come_from_one_pass(tmp_path, tm_runs):
    cfg = RunConfig.from_file(REPO / "configs" / "acceptance_07_omega_limit.json")
    cfg.output_dir = str(tmp_path)
    assert run(cfg) == EXIT_OK
    # omega.json and omega_stages.csv both read stages 1..32 of one walk
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == ["manifest.json", "omega.json", "omega_stages.csv"]
    assert tm_runs.walks == [("omega34", 32)]


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["witness", "-p", "machine=zoo:omega34", "-p", "phi=3/4", "-p", "max_stage=1000"], 1000),
        (["witness", "-p", "machine=zoo:omega58", "-p", "phi=1/2", "-p", "max_stage=600"], 600),
        (["witness", "-p", "machine=zoo:omega34", "-p", "mode=wprime", "-p", "phibar=1000000", "-p", "m=7"], 7),
        (["sweep", "-p", "machine=zoo:omega58", "-p", "grid_denominator=256"], 6568),
    ],
    ids=["w_exhausted", "w_halts", "wprime", "sweep"],
)
def test_each_run_walks_the_machine_once(tmp_path, tm_runs, argv, budget):
    # the prefix-freeness check and every stage value come from one walk
    command, *params = argv
    assert main([command, "--output-dir", str(tmp_path / "run"), *params]) == EXIT_OK
    assert [b for _, b in tm_runs.walks] == [budget]


def test_deep_stage_of_a_machine_that_never_halts_is_cheap(tmp_path, tm_runs):
    # two states swap on cell 0 forever: every input runs to the budget
    # without reading past its first cell, so the walk has four branches
    # where rerunning x_1..x_3000 makes 3,000 runs of 3,000 steps each
    path = tmp_path / "bouncer.tm"
    rules = [f"{q} {x} -> {nxt} {x} S" for q, nxt in (("a", "b"), ("b", "a")) for x in "01_"]
    path.write_text("\n".join(["start: a", "halt: h", *rules]) + "\n")
    argv = ["omega", "--output-dir", str(tmp_path / "run"), "-p", f"machine={path}", "-p", "stage=3000"]
    assert main(argv) == EXIT_OK
    assert read_json(tmp_path / "run" / "omega.json")["omega_s"] == "0"
    assert len(tm_runs.walks) == 1 and tm_runs.advances <= 10


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "-p", "stage=20"],
        ["witness", "-p", "phi=1/2", "-p", "max_stage=20"],
        ["witness", "-p", "mode=wprime", "-p", "phibar=1000000", "-p", "m=7"],
        ["sweep", "-p", "grid_denominator=4"],
    ],
)
def test_non_prefix_free_machine_refused(tmp_path, argv):
    out = tmp_path / "run"
    command, *params = argv
    assert (
        main([command, "--output-dir", str(out), "-p", "machine=zoo:prefix_violator", *params])
        == EXIT_CONSTRAINT
    )
    assert list(out.glob("*")) == []


def test_unknown_parameter_key_refused(tmp_path):
    out = tmp_path / "run"
    argv = ["sweep", "--output-dir", str(out), "-p", "machine=zoo:omega34", "-p", "grid_denominatr=64"]
    assert main(argv) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["qpe", "-p", "mode=rounding", "-p", "n_max=3", "-p", "phi=1/3", "-p", "n=99"],
        ["clock", "-p", "mode=single", "-p", "T=3", "-p", "mu=0.5", "-p", "t_values=[1,2]"],
        ["omega", "-p", "machine=zoo:omega34", "-p", "stage=2.7"],
        ["omega", "-p", "machine=zoo:omega34", "-p", "stage=2", "-p", "include_sequence=False"],
        ["witness", "-p", "machine=zoo:omega34", "-p", "phi=1/2", "-p", "max_stage=true"],
        ["clock", "-p", "T=3.9", "-p", "mu=0.5"],
        ["clock", "-p", "T=3", "-p", "mu=true"],
        ["clock", "-p", "T=3", "-p", "mu=1" + "0" * 400],
        ["clock", "-p", "mode=grid", "-p", "t_values=[2,3.5]"],
        ["spectrum", "-p", "lengths=5"],
    ],
    ids=[
        "qpe_distribution_keys_in_rounding", "clock_grid_key_in_single", "int_given_float",
        "bool_given_string", "int_given_bool", "int_given_float_clock", "float_given_bool",
        "float_given_huge_int",
        "int_list_given_float", "list_given_int",
    ],
)
def test_other_mode_key_or_wrong_type_refused(tmp_path, argv):
    out = tmp_path / "run"
    command, *params = argv
    assert main([command, "--output-dir", str(out), *params]) == EXIT_PARSE
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["qpe", "-p", "mode=grid", "-p", "grid_denominator=1"],
        ["qpe", "-p", "mode=grid", "-p", "n_max=1"],
        ["qpe", "-p", "mode=rounding", "-p", "n_max=1"],
        ["clock", "-p", "mode=cases", "-p", "t_min=5", "-p", "t_max=4"],
        ["clock", "-p", "mode=jordan", "-p", "trials=0"],
        ["clock", "-p", "mode=jordan", "-p", "dim=1"],
        ["sweep", "-p", "mode=schedule", "-p", "n_max=1"],
        ["clock", "-p", "mode=grid", "-p", "t_values=[]"],
        ["clock", "-p", "mode=grid", "-p", "mu_values=[]"],
        ["spectrum", "-p", "mode=xy", "-p", "lengths=[]"],
    ],
    ids=[
        "qpe_grid_no_phase", "qpe_grid_no_n", "qpe_rounding", "clock_cases", "clock_jordan",
        "clock_jordan_dim", "sweep_schedule", "clock_grid_no_t", "clock_grid_no_mu",
        "spectrum_xy_no_lengths",
    ],
)
def test_empty_scan_refused(tmp_path, capsys, argv):
    out = tmp_path / "run"
    command, *params = argv
    assert main([command, "--output-dir", str(out), *params]) == EXIT_CONSTRAINT
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    for empty_list in (a for a in params if a.endswith("=[]")):
        assert empty_list.removesuffix("=[]") in err


def test_schedule_n_max_above_cap_refused(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["sweep", "--output-dir", str(out), "-p", "mode=schedule", "-p", "n_max=1000001"]
    assert main(argv) == EXIT_CONSTRAINT
    assert list(tmp_path.iterdir()) == []
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["grid", "rounding"])
def test_qpe_scan_n_max_above_precision_refused(tmp_path, capsys, mode):
    out = tmp_path / "run"
    argv = ["qpe", "--output-dir", str(out), "-p", f"mode={mode}", "-p", "n_max=21"]
    assert main(argv) == EXIT_CONSTRAINT
    assert list(tmp_path.iterdir()) == []
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode,param",
    [
        ("cases", "t_min=0"), ("cases", "t_min=-3"), ("grid", "t_values=[0]"), ("grid", "t_values=[4,0,2]"),
        ("grid", "mu_values=[1.0]"), ("grid", "mu_values=[0.5,0]"),
    ],
)
def test_clock_length_below_one_named(tmp_path, capsys, mode, param):
    argv = ["clock", "--output-dir", str(tmp_path / "run"), "-p", f"mode={mode}", "-p", param]
    assert main(argv) == EXIT_CONSTRAINT
    key = param.partition("=")[0]
    assert f"{key} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_clock_dense_past_the_limit_refused(tmp_path, capsys):
    # T = 2000 gives dimension 4002, past DENSE_DIM_LIMIT = 4000
    out = tmp_path / "run"
    params = ["-p", "mode=single", "-p", "T=2000", "-p", "mu=0.5", "-p", "method=dense"]
    assert main(["clock", "--output-dir", str(out), *params]) == EXIT_CONSTRAINT
    assert "dense path limited to dimension 4000, got 4002" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "param,code",
    [
        ("c2=Infinity", EXIT_PARSE),  # each reads as a float that is no rational
        ("c2=1e400", EXIT_PARSE),
        ("c2=NaN", EXIT_PARSE),
        ("c2=0.5", EXIT_CONSTRAINT),
        ("c2=1e5", EXIT_CONSTRAINT),  # each check would shift by millions of bits
        ("c2=1e9", EXIT_CONSTRAINT),
        ("c1=3.1416", EXIT_CONSTRAINT),  # 3927/1250: a numerator above 1000
        ("comp_upper_k=1/0", EXIT_PARSE),
        ("comp_upper_k=abc", EXIT_PARSE),
        ("comp_upper_k=0", EXIT_CONSTRAINT),
        ("comp_upper_k=-1/3", EXIT_CONSTRAINT),
    ],
)
def test_bad_model_knob_named(tmp_path, capsys, param, code):
    argv = ["sweep", "--output-dir", str(tmp_path / "run"), "-p", "mode=schedule", "-p", param]
    assert main(argv) == code
    assert param.partition("=")[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "params",
    [["c1=999/250", "c2=16"], ['c2="16.' + "0" * 70 + '1"']],
    ids=["c2=16,c1=999/250", "c2=16+1e-71"],
)
def test_c2_numerator_too_long_for_c1_refused(tmp_path, capsys, params):
    # c^a exceeds MAX_C2_POWER_BITS: 999 * 5 bits, and 7 * 240 bits for the
    # default c1 = 7/2 (a JSON string, as a JSON number would read as 16.0)
    argv = ["sweep", "--output-dir", str(tmp_path / "run"), "-p", "mode=schedule"]
    for param in params:
        argv += ["-p", param]
    assert main(argv) == EXIT_CONSTRAINT
    assert "c2=" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_schedule_with_poly_degree(tmp_path):
    out = tmp_path / "run"
    argv = ["sweep", "--output-dir", str(out), "-p", "mode=schedule", "-p", "xi=16", "-p", "poly_degree=1"]
    assert main(argv) == EXIT_OK
    assert read_json(out / "schedule.json")["s_prime"] == 65537


def test_poly_degree_without_separation_refused(tmp_path, capsys):
    argv = ["sweep", "--output-dir", str(tmp_path / "run"), "-p", "mode=schedule", "-p", "poly_degree=1"]
    assert main(argv) == EXIT_CONSTRAINT
    assert "no separation persisting" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mode_args",
    [["-p", "mode=schedule"], ["-p", "machine=zoo:omega34", "-p", "grid_denominator=4"]],
    ids=["schedule", "classify"],
)
def test_default_model_constants_given_explicitly_write_the_same_bytes(tmp_path, mode_args):
    # c1 and c2 read as rationals, so 7/2 and 3.5 are both the default c1
    runs = []
    for extra in ([], ["-p", "c1=7/2", "-p", "c2=16"], ["-p", "c1=3.5", "-p", "c2=16.0"]):
        out = tmp_path / str(len(runs))
        assert main(["sweep", "--output-dir", str(out), *mode_args, *extra]) == EXIT_OK
        runs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize(
    "phi,m,exact,n_max",
    [("100/257", "half", False, 16), ("1/2", "half", True, 13), ("2/7", None, False, 13)],
    ids=["off-grid", "on-grid", "no-m"],
)
def test_qpe_distribution_csv_bytes(tmp_path, phi, m, exact, n_max):
    # the CSV is written in blocks of 2^min(n, 12) rows: n = 13 is the
    # first size with more than one block, and at n = 16 the blocks start
    # at multiples of 2^12 .. 2^15, each reduced by its own power of two
    for n in range(1, n_max + 1):
        out = tmp_path / f"n{n}"
        argv = ["qpe", "--output-dir", str(out), "-p", "mode=distribution", "-p", f"phi={phi}", "-p", f"n={n}"]
        if m is not None:
            argv += ["-p", f"m={max(1, n // 2)}"]
        assert main(argv) == EXIT_OK
        summary = read_json(out / "qpe.json")
        assert summary["exact"] is exact
        assert ("m" in summary) == (m is not None)
        probs = qpe_distribution(Fraction(phi), n).probabilities
        if exact:
            assert sorted(probs.tolist())[-2:] == [0.0, 1.0] and probs.sum() == 1.0, n
        lines = ["z,estimate,probability"]
        lines += [f"{z},{Fraction(z, 2**n)},{format(float(p), '.17g')}" for z, p in enumerate(probs)]
        assert (out / "qpe.csv").read_bytes() == ("\n".join(lines) + "\n").encode(), n


COMPOSE = ["spectrum", "-p", "mode=compose", "-p", 'uu=["0"]', "-p", 'dense=["0"]', "-p", 'trivial=["1"]']


@pytest.mark.parametrize(
    "argv,key",
    [
        (["qpe", "-p", "n=4", "-p", "phi=1/0"], "phi"),
        (["qpe", "-p", "n=4", "-p", "phi=abc"], "phi"),
        ([*COMPOSE, "-p", "beta=1/0"], "beta"),
        ([*COMPOSE, "-p", "beta=abc"], "beta"),
        ([*COMPOSE, "-p", "beta=1", "-p", 'uu=["x"]'], "uu"),
    ],
    ids=["phi=1/0", "phi=abc", "beta=1/0", "beta=abc", "uu=x"],
)
def test_unreadable_rational_named(tmp_path, capsys, argv, key):
    command, *params = argv
    assert main([command, "--output-dir", str(tmp_path / "run"), *params]) == EXIT_PARSE
    assert repr(key) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,artifact,key,want",
    [
        (["witness", "-p", "phi=0.25", "-p", "max_stage=50"], "witness.json", "phi", "1/4"),
        (["witness", "-p", "phi=1/4", "-p", "max_stage=50"], "witness.json", "phi", "1/4"),
        (["qpe", "-p", "phi=0.11", "-p", "n=4"], "qpe.json", "phi", "11/100"),
        (["sweep", "-p", "phis=[0.25, 0.875]"], "sweep.csv", "phi", "1/4 7/8"),
    ],
    ids=["witness_decimal", "witness_fraction", "qpe_decimal", "sweep_decimal"],
)
def test_decimal_phase_is_the_rational_it_denotes(tmp_path, argv, artifact, key, want):
    command, *params = argv
    if command != "qpe":
        params += ["-p", "machine=zoo:omega34"]
    assert main([command, "--output-dir", str(tmp_path), *params]) == EXIT_OK
    if artifact.endswith(".json"):
        assert read_json(tmp_path / artifact)[key] == want
    else:
        rows = (tmp_path / artifact).read_text().splitlines()[1:]
        assert " ".join(row.partition(",")[0] for row in rows) == want


@pytest.mark.parametrize(
    "argv,phis",
    [
        (["witness", "-p", "max_stage=50", "-p", "phi=0.11"], [Fraction(11, 100)]),
        (["witness", "-p", "max_stage=50", "-p", "phi=1/3"], [Fraction(1, 3)]),
        (["sweep", "-p", "phis=[0.5, 0.11]"], [Fraction(1, 2), Fraction(11, 100)]),
        (["sweep", "-p", "grid_denominator=12"], [Fraction(k, 12) for k in range(1, 13)]),
    ],
    ids=["witness_decimal", "witness_third", "sweep_phis", "sweep_grid_12"],
)
def test_off_grid_phase_runs(tmp_path, argv, phis):
    # a phase with any denominator runs, and gives what the Fraction
    # oracles give: the least stage above phi, and each phase's sweep
    # classification at the auto budget s' + 1
    command, *params = argv
    assert main([command, "--output-dir", str(tmp_path), "-p", "machine=zoo:omega34", *params]) == EXIT_OK
    if command == "witness":
        stages = omega_stage_values(walk_inputs(zoo_machine("omega34"), 50), 50)
        want = next(s for s, value in enumerate(stages, start=1) if phis[0] < value)
        assert want == 2  # omega34's stage 2 is 1/2
        assert read_json(tmp_path / "witness.json")["halted_at"] == want
        return
    model = SquareEnergyModel()
    s_prime = phase.find_s_prime(model)
    stages = omega_stage_values(walk_inputs(zoo_machine("omega34"), s_prime + 1), model.m_of(s_prime + 1))
    want = []
    for phi in phis:
        *_, (side, regime) = sweep_oracle(phi, stages, model, s_prime + 1)
        want.append([str(phi), f"gapless_evidence({side})" if regime == "halting" else f"no_evidence({s_prime + 1})"])
    with (tmp_path / "sweep.csv").open() as fh:
        assert [row[:2] for row in csv.reader(fh)][1:] == want
    assert [cls.startswith("gapless") for _, cls in want] == [phi < Fraction(3, 4) for phi in phis]  # omega34's value


@pytest.mark.parametrize("den", [0, -4], ids=["sweep_grid_0", "sweep_grid_-4"])
def test_grid_denominator_out_of_range(tmp_path, capsys, den):
    argv = ["sweep", "--output-dir", str(tmp_path / "run"), "-p", "machine=zoo:omega34"]
    assert main([*argv, "-p", f"grid_denominator={den}"]) == EXIT_CONSTRAINT
    assert "'grid_denominator'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_phase_reader_round_trip():
    # any rational, the decimals as the rationals they denote: 0.11 is
    # 11/100, not binary 3/4
    for value, want in [
        ("3/4", Fraction(3, 4)),
        ("0.25", Fraction(1, 4)),
        (0.25, Fraction(1, 4)),
        ("-0.75", Fraction(-3, 4)),
        ("1.5", Fraction(3, 2)),
        ("6/8", Fraction(3, 4)),
        ("7", Fraction(7)),
        (7, Fraction(7)),
        ("0", Fraction(0)),
        ("1/3", Fraction(1, 3)),
        ("0.11", Fraction(11, 100)),
        (0.1, Fraction(1, 10)),
        ("5/12", Fraction(5, 12)),
    ]:
        d = _read("phi", value, Fraction)
        assert d == want
        assert _read("phi", str(d), Fraction) == d


def test_phase_reader_rejects_unreadable():
    for value in ("abc", "1/2^3", "1/0", True, [1]):
        with pytest.raises(ConfigError):
            _read("phi", value, Fraction)


def test_alternative_keys_refused_together(tmp_path, capsys):
    spec = tmp_path / "case.clock"
    spec.write_text("T 2\ndim 1\nU 1\n1 0\nU 2\n1 0\nPI_IN 1\n1 0\nPI_OUT\n0 0\n")
    runs = [
        (["sweep", "-p", "machine=zoo:omega34", "-p", "grid_denominator=4", "-p", 'phis=["1/2"]'],
         ("grid_denominator", "phis")),
        (["clock", "-p", f"spec_file={spec}", "-p", "T=5", "-p", "mu=0.3"], ("spec_file", "T", "mu")),
        (["clock", "-p", f"spec_file={spec}", "-p", "mu=0.3"], ("spec_file", "mu")),
    ]
    for argv, keys in runs:
        command, *params = argv
        assert main([command, "--output-dir", str(tmp_path / "run"), *params]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert all(repr(key) in err for key in keys), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.clock"]
    # either group alone runs; the spec file's run reports no mu
    assert main(["clock", "--output-dir", str(tmp_path / "spec"), "-p", f"spec_file={spec}"]) == EXIT_OK
    assert read_json(tmp_path / "spec" / "clock.json")["mu"] is None


@pytest.mark.parametrize(
    "text",
    [
        "T abc\ndim 1\nU 1\n1 0\nPI_OUT\n0 0\n",
        "T 1\ndim 2\nU 1\n1 0 0 0\n0 0\nPI_OUT\n0 0 0 0\n0 0 0 0\n",
        "T 2\ndim 1\nU 2\n1 0\nU 1\n1 0\nPI_OUT\n0 0\n",
        "T 1\ndim 1\nU 1\n1 0\nPI_OUT\n0 0\nPI_OUT\n1 0\n",
    ],
    ids=["non_integer_header", "ragged_rows", "sections_out_of_order", "second_pi_out"],
)
def test_malformed_spec_file_exits_parse(tmp_path, capsys, text):
    spec = tmp_path / "broken.clock"
    spec.write_text(text)
    assert main(["clock", "--output-dir", str(tmp_path / "run"), "-p", f"spec_file={spec}"]) == EXIT_PARSE
    assert "line " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.clock"]


def test_iterative_clock_at_dimension_three_matches_dense(tmp_path):
    spec = tmp_path / "tiny.clock"
    spec.write_text("T 2\ndim 1\nU 1\n1 0\nU 2\n1 0\nPI_IN 1\n1 0\nPI_OUT\n0 0\n")
    lambda0 = {}
    for method in ("iterative", "dense"):
        out = tmp_path / method
        argv = ["clock", "--output-dir", str(out), "-p", "mode=single", "-p", f"method={method}"]
        assert main([*argv, "-p", f"spec_file={spec}"]) == EXIT_OK
        lambda0[method] = read_json(out / "clock.json")["lambda0"]
    assert abs(lambda0["iterative"] - lambda0["dense"]) <= 1e-12


# Every (command, mode, key) of the parameter table, so that a key added
# later is covered here without a new case.
TABLE = [
    pytest.param(command, mode, key, kind, default, id=f"{command}-{mode or '-'}-{key}")
    for command, modes in PARAM_KEYS.items()
    for mode, table in modes.items()
    for key, (kind, default) in table.items()
]


def _sample(kind):
    """A value of the kind's JSON type (its range is not checked before a run)."""
    if typing.get_origin(kind) is list:
        return [_sample(typing.get_args(kind)[0])]
    return {int: 1, float: 0.5, bool: True, str: "x", Fraction: "1/2"}[kind]


def _wrong_types(kind):
    if typing.get_origin(kind) is list:
        return [True, [True]]
    return [1, "true"] if kind is bool else [True, [1]]


def _run_from_file(tmp_path, command, mode, params):
    if mode:
        params["mode"] = mode
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"command": command, "output_dir": str(tmp_path / "run"), "params": params})
    )
    code = main([command, "--config", str(config)])
    assert list(tmp_path.iterdir()) == [config]
    return code


def _required(command, mode):
    return {
        key: _sample(kind)
        for key, (kind, default) in PARAM_KEYS[command][mode].items()
        if default is REQUIRED
    }


@pytest.mark.parametrize(
    "command,mode,key,kind,default", [case for case in TABLE if case.values[4] is REQUIRED]
)
def test_table_required_key_missing(tmp_path, capsys, command, mode, key, kind, default):
    params = _required(command, mode)
    del params[key]
    assert _run_from_file(tmp_path, command, mode, params) == EXIT_PARSE
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command,mode,key,kind,default", TABLE)
def test_table_wrong_json_type(tmp_path, capsys, command, mode, key, kind, default):
    for wrong in _wrong_types(kind):
        params = {**_required(command, mode), key: wrong}
        assert _run_from_file(tmp_path, command, mode, params) == EXIT_PARSE, wrong
        assert repr(key) in capsys.readouterr().err


def test_readme_command_lines_run(tmp_path, monkeypatch):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line runs", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("omegaphase ")]
    assert lines
    monkeypatch.chdir(REPO)  # the config paths in the README are relative to the repo
    for i, line in enumerate(lines):
        argv = shlex.split(line)[1:]
        out = str(tmp_path / str(i))
        if "--output-dir" in argv:
            argv[argv.index("--output-dir") + 1] = out
        else:
            argv += ["--output-dir", out]
        assert main(argv) == EXIT_OK, line


@pytest.mark.parametrize(
    "argv",
    [
        ["qpe", "-p", "phi=1/3", "-p", "n=8", "-p", "m=9"],
        ["omega", "-p", "machine=zoo:prefix_violator", "-p", "stage=20"],
    ],
)
def test_failed_run_leaves_no_output_dir(tmp_path, argv):
    out = tmp_path / "run"
    command, *params = argv
    assert main([command, "--output-dir", str(out), *params]) == EXIT_CONSTRAINT
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # nor a staging directory


def test_failed_run_creates_no_missing_parents(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    argv = ["qpe", "--output-dir", str(out), "-p", "phi=1/3", "-p", "n=8", "-p", "m=9"]
    assert main(argv) == EXIT_CONSTRAINT
    assert list(tmp_path.iterdir()) == []


def test_run_creates_missing_parents_on_success(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    argv = ["omega", "--output-dir", str(out), "-p", "machine=zoo:omega34", "-p", "stage=7"]
    assert main(argv) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "omega.json"]
    assert list(tmp_path.iterdir()) == [tmp_path / "a"]
    assert list((tmp_path / "a" / "b").iterdir()) == [out]


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "--output-dir", "{afile}", "-p", "machine=zoo:omega34", "-p", "stage=3"],
        ["omega", "--config", "{adir}", "--output-dir", "{run}"],
        ["omega", "--output-dir", "{run}", "-p", "machine={adir}", "-p", "stage=3"],
        ["clock", "--output-dir", "{run}", "-p", "spec_file={adir}"],
    ],
    ids=["output_dir_is_file", "config_is_dir", "machine_is_dir", "spec_file_is_dir"],
)
def test_os_errors_exit_parse(tmp_path, argv):
    afile, adir = tmp_path / "afile", tmp_path / "adir"
    afile.write_text("keep\n")
    adir.mkdir()
    paths = {"afile": afile, "adir": adir, "run": tmp_path / "run"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_PARSE
    assert afile.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list(adir.iterdir()) == []


@pytest.mark.parametrize(
    "machine,stage,message",
    [
        ("zoo:prefix_violator", 20, "machine 'prefix_violator' is not prefix-free: '' and '0' both halt"),
        ("every_word.tm", 15, "machine 'every_word' is not prefix-free: '' and '0' both halt"),
        (
            "every_word.tm",
            40,
            "cannot check that 'every_word' is prefix-free: input decision tree exceeded "
            "200000 branches; machine reads too much input for this budget",
        ),
    ],
    ids=["violator_20", "every_word_15", "every_word_40"],
)
def test_prefix_refusal_names_its_reason(tmp_path, capsys, machine, stage, message):
    # every_word halts on every input once it reads past the end: at stage
    # 15 its halting words nest, and at 40 its input decision tree
    # outgrows the walk before that can be checked
    (tmp_path / "every_word.tm").write_text("start: q\nhalt: h\nq 0 -> q 0 R\nq 1 -> q 1 R\nq _ -> h _ S\n")
    ref = machine if machine.startswith("zoo:") else str(tmp_path / machine)
    out = tmp_path / "run"
    argv = ["omega", "--output-dir", str(out), "-p", f"machine={ref}", "-p", f"stage={stage}"]
    assert main(argv) == EXIT_CONSTRAINT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "omegaphase.cli",
            "omega",
            "--output-dir",
            str(tmp_path / "proc"),
            "-p",
            "machine=zoo:halt_on_zero",
            "-p",
            "stage=4",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert read_json(tmp_path / "proc" / "omega.json")["omega_s"] == "1/2"


def test_cli_import_loads_no_scipy_sparse():
    # the clock layer keeps its matrices as LAPACK bands, so no process
    # pays for importing scipy.sparse
    code = "import sys, omegaphase.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parse_errors_share_one_numpy_free_base():
    # the machine and clock-spec readers raise one line-numbered base,
    # which main catches for exit 2; its module loads no numpy
    assert issubclass(MachineParseError, ParseError)
    assert issubclass(ClockSpecParseError, ParseError)
    assert ClockSpecParseError("bad", 4).line == 4
    code = (
        "import sys\n"
        "from omegaphase.errors import ParseError\n"
        "err = ParseError('bad', 4)\n"
        "print('numpy' in sys.modules, err.line, err)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 4 line 4: bad\n"


@pytest.mark.parametrize("name", ["BracketError", "SeparationError"])
def test_constraint_errors_live_in_the_numpy_free_module(monkeypatch, capsys, tmp_path, name):
    # the clock's and the phase model's constraint failures are the errors
    # module's classes, importable where they are raised; main maps each to
    # exit 3 with its message, and the module loads no numpy
    error = getattr(errors, name)
    assert getattr(clock if name == "BracketError" else phase, name) is error

    def failing(cfg):
        raise error("constants too loose")

    monkeypatch.setattr(cli, "run", failing)
    assert main(["sweep", "--output-dir", str(tmp_path / "run")]) == EXIT_CONSTRAINT
    assert capsys.readouterr().err == "error: constants too loose\n"
    code = f"import sys\nfrom omegaphase.errors import {name}\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
