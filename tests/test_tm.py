"""Machine format, canonical enumeration, and the input walk's halting
times and prefix-freeness search, checked against the bundled zoo's
ground truth and, on seeded random machines, against a naive simulator."""

import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from omegaphase import tm
from omegaphase.chaitin import omega_stage_values
from omegaphase.tm import (
    BLANK,
    MachineParseError,
    MachineSpec,
    enumerate_input,
    parse_machine,
    walk_inputs,
)
from omegaphase.zoo import ZOO, zoo_machine, zoo_machine_text

SRC = Path(tm.__file__).resolve().parents[1]


def brute_force_enumeration(count):
    """Independent oracle: materialise words sorted by (length, lex)."""
    words = [""]
    length = 1
    while len(words) < count:
        words.extend("".join(bits) for bits in itertools.product("01", repeat=length))
        length += 1
    return words[:count]


def naive_run(spec, word, budget):
    """Independent oracle: apply transitions one at a time on a dict tape,
    with no loop shortcuts; returns (halted, steps applied)."""
    tape = dict(enumerate(word.encode()))
    state, head, steps = spec.start, 0, 0
    while state != spec.halt and steps < budget:
        state, tape[head], move = spec.step(state, tape.get(head, ord(BLANK)))
        head = head + 1 if move == "R" else max(head - 1, 0) if move == "L" else head
        steps += 1
    return state == spec.halt, steps


def naive_stage_values(spec, s_max):
    """Independent oracle: stages 1..s_max, stage s adding 2^-|x_i| for
    each i <= s with x_i halting within s steps; each input runs once,
    for s_max steps."""
    times = [naive_run(spec, enumerate_input(i), s_max) for i in range(1, s_max + 1)]
    return [
        sum((Fraction(1, 2 ** (i.bit_length() - 1)) for i, (halted, steps) in enumerate(times[:s], start=1)
             if halted and steps <= s), Fraction(0))
        for s in range(1, s_max + 1)
    ]


def random_machines(count, seed=0):
    """Seeded machines with 1-3 working states and every rule drawn at random."""
    rng = random.Random(seed)
    machines = []
    for k in range(count):
        states = [f"q{i}" for i in range(rng.randint(1, 3))]
        rules = tuple(
            (state, read, rng.choice(states + ["h"]), rng.choice("01_"), rng.choice("LRS"))
            for state in states
            for read in "01_"
        )
        machines.append(MachineSpec(f"random{k}", "q0", "h", rules))
    return machines


WORDS_UP_TO_6 = ["".join(bits) for n in range(7) for bits in itertools.product("01", repeat=n)]
PREFIX_FREE = [name for name, e in ZOO.items() if e.prefix_free]


def least_nested_pair(words):
    """Independent oracle: the least pair (x, y) of ``words`` with x a
    proper prefix of y, under (|x|, x, |y|, y), by testing every pair;
    None if there is none."""
    pairs = [(x, y) for x in words for y in words if len(x) < len(y) and y.startswith(x)]
    return min(pairs, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]), default=None)


def assert_refused(spec, budget, pair):
    """The walk at ``budget`` refuses ``spec``, naming the nested ``pair``."""
    x, y = pair
    message = f"machine {spec.name!r} is not prefix-free: {x!r} and {y!r} both halt"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        walk_inputs(spec, budget)


def test_enumerate_input_examples():
    assert enumerate_input(1) == ""
    assert enumerate_input(3) == "1"
    # 1 + 2 + 4 = 7 words of length <= 2, so index 8 is the first of length 3
    assert enumerate_input(8) == "000"


def test_enumerate_input_matches_brute_force():
    oracle = brute_force_enumeration(200)
    got = [enumerate_input(i) for i in range(1, 201)]
    assert got == oracle


def test_enumerate_input_bijection():
    for k in range(0, 6):
        span = [enumerate_input(i) for i in range(1, 2 ** (k + 1))]
        assert len(set(span)) == len(span)
        assert set(span) == {w for w in brute_force_enumeration(2 ** (k + 1) - 1)}


def test_parser_rejects_duplicates_with_line_number():
    text = "\n".join(
        [
            "start: a",
            "halt: h",
            "a 0 -> h 0 S",
            "a 1 -> a 1 S",
            "a _ -> a _ S",
            "a 0 -> a 0 S",
        ]
    )
    with pytest.raises(MachineParseError) as err:
        parse_machine(text)
    assert err.value.line == 6
    # a repeated header would silently override the first
    for first, key in enumerate(("name", "start", "halt"), start=1):
        text = f"name: n\nstart: a\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S\n{key}: b"
        with pytest.raises(MachineParseError, match=rf"^line 7: repeated '{key}' header; first at line {first}$"):
            parse_machine(text)


@pytest.mark.parametrize(
    "rule,message",
    [
        ("a 2 -> h 0 S", "symbol must be one of 0, 1, _"),
        ("a _ -> h 2 S", "symbol must be one of 0, 1, _"),
        ("a _ -> h 0 X", "move must be one of L, R, S"),
        ("a _ -> h 0", "malformed rule 'a _ -> h 0'"),
    ],
    ids=["read_symbol", "write_symbol", "move", "field_count"],
)
def test_parser_names_the_line_of_a_bad_rule(rule, message):
    text = f"start: a\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S\n{rule}"
    with pytest.raises(MachineParseError, match=rf"^line 5: {re.escape(message)}$") as err:
        parse_machine(text)
    assert err.value.line == 5


def test_parser_requires_headers_and_totality():
    with pytest.raises(MachineParseError):
        parse_machine("halt: h\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S")
    with pytest.raises(MachineParseError):
        parse_machine("start: a\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S")
    with pytest.raises(MachineParseError):  # missing (a, _) rule
        parse_machine("start: a\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S")
    with pytest.raises(MachineParseError):  # rules out of the halt state
        parse_machine(
            "start: a\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S\nh 0 -> a 0 S"
        )


def test_parser_refuses_a_start_state_without_rules():
    # only a has rules; the start state z, named on no rule's left, has none
    text = "start: z\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S"
    with pytest.raises(MachineParseError, match=r"^start state 'z' has no rules$"):
        parse_machine(text)


def test_parser_refuses_a_start_state_that_is_the_halt_state():
    for rules in ("", "\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S"):
        with pytest.raises(MachineParseError, match=r"^start state 'h' is the halt state$"):
            parse_machine(f"start: h\nhalt: h{rules}")


# b, c and d have no rules; sorted, the least gap is (b, 0)
UNTOTAL = "start: a\nhalt: h\na 0 -> b 0 R\na 1 -> c 1 R\na _ -> d _ S"


def test_parser_names_the_least_missing_rule():
    with pytest.raises(MachineParseError, match=r"^transition table not total: missing b 0$"):
        parse_machine(UNTOTAL)


@pytest.mark.parametrize("seed", ["1", "3", "6"])
def test_missing_rule_message_ignores_the_hash_seed(seed):
    # under these seeds a walk in set order named d 0, c 0 and d 0
    code = (
        "from omegaphase.tm import parse_machine\n"
        "try:\n"
        f"    parse_machine({UNTOTAL!r})\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "transition table not total: missing b 0\n"


def test_format_round_trip():
    for name in ZOO:
        again, bundled = parse_machine(zoo_machine_text(name), name=name), zoo_machine(name)
        assert (again.name, again.start, again.halt, again.rules) == (
            bundled.name, bundled.start, bundled.halt, bundled.rules
        )


def test_run_bounded_examples():
    hz = zoo_machine("halt_on_zero")
    assert naive_run(hz, "0", 0) == naive_run(hz, "", 0) == (False, 0)
    assert naive_run(hz, "0", 2) == (True, 2)
    assert naive_run(hz, "1", 10**4) == (False, 10**4)
    assert walk_inputs(hz, 2).halting_steps("0") == 2
    assert walk_inputs(hz, 1).halting_steps("0") is None
    assert walk_inputs(hz, 10**6).halting_steps("1") is None


def test_halting_steps_refuses_words_the_walk_did_not_run():
    walk = walk_inputs(zoo_machine("omega34"), 5)
    with pytest.raises(ValueError, match="^input '000000' is longer than the walk's budget 5$"):
        walk.halting_steps("000000")
    # the empty word runs on a blank tape: omega34 enters its dead loop
    assert walk.halting_steps("") is None
    assert walk.halting_steps("11") == 3


def test_run_bounded_monotone_in_budget():
    spec = zoo_machine("omega34")
    for word in ["", "0", "1", "00", "11", "110", "011"]:
        outcomes = [walk_inputs(spec, s).halting_steps(word) is not None for s in range(len(word), 10)]
        assert outcomes == sorted(outcomes)
        assert outcomes == [naive_run(spec, word, s)[0] for s in range(len(word), 10)]


def test_steps_within_budget():
    for name in PREFIX_FREE:
        spec = zoo_machine(name)
        for budget in (0, 3, 17):
            walk = walk_inputs(spec, budget)
            assert all(steps <= budget for steps in walk.halting.values())


def test_walk_at_budget_zero_halts_nothing():
    for name in ZOO:
        walk = walk_inputs(zoo_machine(name), 0)
        assert (walk.name, walk.budget, walk.halting) == (name, 0, {})


def test_blank_runner_semantics():
    # a machine that scans right forever over blanks: never halts,
    # consumes the whole budget
    text = "\n".join(
        ["start: a", "halt: h", "a 0 -> a 0 R", "a 1 -> a 1 R", "a _ -> a _ R"]
    )
    spec = parse_machine(text, name="runner")
    assert naive_run(spec, "10", 1000) == (False, 1000)
    assert walk_inputs(spec, 10).halting == {}


def test_zoo_ground_truth_halting_sets():
    budget = 10**4
    for name, entry in ZOO.items():
        if not entry.prefix_free:
            assert_refused(zoo_machine(name), budget, least_nested_pair(entry.halting_set))
            continue
        walk = walk_inputs(zoo_machine(name), budget)
        found = {
            "".join(bits)
            for length in range(0, 9)
            for bits in itertools.product("01", repeat=length)
            if walk.halting_steps("".join(bits)) is not None
        }
        assert found == set(entry.halting_set), name


def test_halting_times_documented():
    o34 = zoo_machine("omega34")
    assert walk_inputs(o34, 2).halting_steps("0") == 2
    assert walk_inputs(o34, 1).halting_steps("0") is None
    assert walk_inputs(o34, 3).halting_steps("11") == 3
    assert walk_inputs(o34, 2).halting_steps("11") is None
    slow = zoo_machine("slow_halter")
    assert walk_inputs(slow, 5).halting_steps("1") == 5
    assert walk_inputs(slow, 4).halting_steps("1") is None


def test_prefix_check_examples():
    assert walk_inputs(zoo_machine("halt_on_zero"), 100).halting == {"0": 2}
    assert walk_inputs(zoo_machine("omega34"), 100).halting == {"0": 2, "11": 3}
    assert_refused(zoo_machine("prefix_violator"), 100, ("", "0"))


def test_prefix_check_detects_cylinders():
    # halts after reading just the first 0: every extension halts too
    text = "\n".join(
        ["start: a", "halt: h", "a 0 -> h 0 S", "a 1 -> a 1 S", "a _ -> a _ S"]
    )
    spec = parse_machine(text, name="greedy")
    assert_refused(spec, 50, ("0", "00"))
    # at budget 1 no extension of "0" is an input, and "0" itself halts
    walk = walk_inputs(spec, 1)
    assert walk.halting == {"0": 1} and walk.halting_steps("0") == 1


def test_prefix_check_on_deep_halting_trees():
    # halting sets {0^k 1}: first_one halts on reading the 1, so each 0^k 1
    # is a cylinder; zeros_then_one also reads the end of the input, so the
    # set is prefix-free however deep the walk goes
    rules = ["start: a", "halt: h", "a 0 -> a 0 R", "a _ -> a _ S"]
    first_one = parse_machine("\n".join([*rules, "a 1 -> h 1 S"]), name="first_one")
    assert_refused(first_one, 300, ("1", "10"))
    deep = ["a 1 -> b 1 R", "b _ -> h _ S", "b 0 -> b 0 S", "b 1 -> b 1 S"]
    zeros_then_one = parse_machine("\n".join([*rules, *deep]), name="zeros_then_one")
    # 0^k 1 halts on the blank after it, in k + 2 steps
    assert walk_inputs(zeros_then_one, 300).halting == {"0" * k + "1": k + 2 for k in range(299)}


def test_prefix_check_finds_every_nested_pair():
    # halts on reading the blank, so every word of length < budget halts
    # exactly: the check must name the least of every (x, y) with x a
    # proper prefix of y; at budget 1 only the empty word halts
    text = "start: a\nhalt: h\na 0 -> a 0 R\na 1 -> a 1 R\na _ -> h _ S"
    spec = parse_machine(text, name="every_word")
    assert_refused(spec, 6, least_nested_pair(WORDS_UP_TO_6[: 2**6 - 1]))  # lengths 0..5
    assert walk_inputs(spec, 1).halting == {"": 1}


def test_prefix_check_rejects_bad_budget():
    with pytest.raises(ValueError, match="^budget must be >= 0, got -1$"):
        walk_inputs(zoo_machine("looper"), -1)


def naive_reads_past(spec, prefix, budget):
    """Independent oracle: whether a run on an input starting with
    ``prefix`` tries, within the budget and before halting, to read the
    cell just past it."""
    tape = dict(enumerate(prefix.encode()))
    state, head, steps = spec.start, 0, 0
    while state != spec.halt and steps < budget:
        if head >= len(prefix):
            return True
        state, tape[head], move = spec.step(state, tape[head])
        head = head + 1 if move == "R" else max(head - 1, 0) if move == "L" else head
        steps += 1
    return False


def naive_tree_nodes(spec, budget, cap):
    """Independent oracle for the walk's size: the nodes of the input
    decision tree, counted until they exceed ``cap``.  Each input prefix
    p of length <= budget is a node while its input is still open; if a
    run reads past it, p as a whole input is one more node, and p0 and
    p1 are nodes when p is shorter than the budget."""
    nodes, open_prefixes = 0, [""]
    while open_prefixes and nodes <= cap:
        prefix = open_prefixes.pop()
        nodes += 1
        if naive_reads_past(spec, prefix, budget):
            nodes += 1
            if len(prefix) < budget:
                open_prefixes += [prefix + "0", prefix + "1"]
    return nodes


def test_walk_matches_naive_oracle(monkeypatch):
    # a tree of n nodes is walked under a branch cap of n and refused
    # under n - 1; trees above a small limit are refused at that limit.
    # About two walks in three find nested halting words and are refused
    # too, so enough machines are drawn to walk 500 prefix-free records
    limit = 100
    refused = walked = 0
    for spec in random_machines(500, seed=2):
        for budget in (1, 3, 6, 12, 40):
            nodes = naive_tree_nodes(spec, budget, limit)
            monkeypatch.setattr(tm, "_MAX_BRANCHES", min(nodes, limit + 1) - 1)
            with pytest.raises(ValueError, match="branches; machine reads too much input"):
                walk_inputs(spec, budget)
            if nodes > limit:
                refused += 1
                continue
            monkeypatch.setattr(tm, "_MAX_BRANCHES", nodes)
            try:
                walk = walk_inputs(spec, budget)
            except ValueError as err:
                assert "is not prefix-free" in str(err)
                continue
            walked += 1
            for word in WORDS_UP_TO_6:
                if len(word) <= min(budget, 5):
                    halted, steps = naive_run(spec, word, budget)
                    assert walk.halting_steps(word) == (steps if halted else None), (spec.rules, word)
            assert omega_stage_values(walk, budget) == naive_stage_values(spec, budget), (spec.rules, budget)
    assert refused >= 50 and walked >= 500


def test_prefix_check_matches_naive_oracle():
    # a word halts within b steps iff its oracle halting time is <= b; the
    # walk refuses exactly the budgets whose halting words nest, naming
    # the least pair, and otherwise records every halting word and its time
    for spec in random_machines(300, seed=1):
        times = {}
        for word in WORDS_UP_TO_6:
            halted, steps = naive_run(spec, word, 6)
            if halted:
                times[word] = steps
        for budget in range(1, 7):
            halting = {w: t for w, t in times.items() if len(w) <= budget and t <= budget}
            pair = least_nested_pair(halting)
            if pair is None:
                assert walk_inputs(spec, budget).halting == halting, (spec.rules, budget)
            else:
                assert_refused(spec, budget, pair)
