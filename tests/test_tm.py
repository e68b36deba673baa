"""Machine format, canonical enumeration, bounded execution, and the
prefix-freeness search, checked against the bundled zoo's ground truth
and, on seeded random machines, against a naive simulator."""

import itertools
import random

import pytest

from omegaphase.tm import (
    BLANK,
    ExecutionResult,
    MachineParseError,
    MachineSpec,
    check_prefix_free_up_to,
    enumerate_input,
    parse_machine,
    run_bounded,
)
from omegaphase.zoo import ZOO, zoo_machine, zoo_machine_text


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


def test_format_round_trip():
    for name in ZOO:
        again, bundled = parse_machine(zoo_machine_text(name), name=name), zoo_machine(name)
        assert (again.name, again.start, again.halt, again.rules) == (
            bundled.name, bundled.start, bundled.halt, bundled.rules
        )


def test_run_bounded_examples():
    hz = zoo_machine("halt_on_zero")
    assert run_bounded(hz, "0", 0) == run_bounded(hz, "", 0)
    zero_budget = run_bounded(hz, "0", 0)
    assert not zero_budget.halted and zero_budget.steps_used == 0
    two = run_bounded(hz, "0", 2)
    assert two.halted and two.steps_used == 2
    long_run = run_bounded(hz, "1", 10**6)
    assert not long_run.halted and long_run.steps_used == 10**6


def test_run_bounded_refuses_non_binary_words():
    spec = zoo_machine("omega34")
    for word in ("2", "_0", "0 1", "10" + BLANK):
        with pytest.raises(ValueError, match="binary"):
            run_bounded(spec, word, 5)
    # the empty word runs on a blank tape: omega34 enters its dead loop
    assert run_bounded(spec, "", 5) == ExecutionResult(False, 5)
    assert run_bounded(spec, "11", 5) == ExecutionResult(True, 3)


def test_run_bounded_monotone_in_budget():
    spec = zoo_machine("omega34")
    for word in ["", "0", "1", "00", "11", "110", "011"]:
        outcomes = [run_bounded(spec, word, s).halted for s in range(10)]
        for early, late in zip(outcomes, outcomes[1:]):
            assert (not early) or late


def test_steps_within_budget():
    for name in ZOO:
        spec = zoo_machine(name)
        for word in ["", "0", "11", "0101"]:
            for budget in (0, 3, 17):
                res = run_bounded(spec, word, budget)
                assert res.steps_used <= budget


def test_blank_runner_semantics():
    # a machine that scans right forever over blanks: never halts,
    # consumes the whole budget
    text = "\n".join(
        ["start: a", "halt: h", "a 0 -> a 0 R", "a 1 -> a 1 R", "a _ -> a _ R"]
    )
    spec = parse_machine(text, name="runner")
    res = run_bounded(spec, "10", 1000)
    assert not res.halted and res.steps_used == 1000


def test_zoo_ground_truth_halting_sets():
    budget = 10**4
    for name, entry in ZOO.items():
        spec = zoo_machine(name)
        found = set()
        for length in range(0, 9):
            for bits in itertools.product("01", repeat=length):
                word = "".join(bits)
                if run_bounded(spec, word, budget).halted:
                    found.add(word)
        assert found == set(entry.halting_set), name


def test_halting_times_documented():
    o34 = zoo_machine("omega34")
    assert run_bounded(o34, "0", 2).halted
    assert not run_bounded(o34, "0", 1).halted
    assert run_bounded(o34, "11", 3).halted
    assert not run_bounded(o34, "11", 2).halted
    slow = zoo_machine("slow_halter")
    assert run_bounded(slow, "1", 5).halted
    assert not run_bounded(slow, "1", 4).halted


def test_prefix_check_examples():
    assert check_prefix_free_up_to(zoo_machine("halt_on_zero"), 100) == []
    assert check_prefix_free_up_to(zoo_machine("omega34"), 100) == []
    violations = check_prefix_free_up_to(zoo_machine("prefix_violator"), 100)
    assert violations == [("", "0")]


def test_prefix_check_detects_cylinders():
    # halts after reading just the first 0: every extension halts too
    text = "\n".join(
        ["start: a", "halt: h", "a 0 -> h 0 S", "a 1 -> a 1 S", "a _ -> a _ S"]
    )
    spec = parse_machine(text, name="greedy")
    violations = check_prefix_free_up_to(spec, 50)
    assert ("0", "00") in violations


def test_prefix_check_on_deep_halting_trees():
    # halting sets {0^k 1}: first_one halts on reading the 1, so each 0^k 1
    # is a cylinder; zeros_then_one also reads the end of the input, so the
    # set is prefix-free however deep the walk goes
    rules = ["start: a", "halt: h", "a 0 -> a 0 R", "a _ -> a _ S"]
    first_one = parse_machine("\n".join([*rules, "a 1 -> h 1 S"]), name="first_one")
    assert check_prefix_free_up_to(first_one, 300) == [
        ("0" * k + "1", "0" * k + "10") for k in range(299)
    ]
    deep = ["a 1 -> b 1 R", "b _ -> h _ S", "b 0 -> b 0 S", "b 1 -> b 1 S"]
    zeros_then_one = parse_machine("\n".join([*rules, *deep]), name="zeros_then_one")
    assert check_prefix_free_up_to(zeros_then_one, 300) == []


def test_prefix_check_finds_every_nested_pair():
    # halts on reading the blank, so every word of length < budget halts
    # exactly: the check must report every (x, y) with x a proper prefix of y
    text = "start: a\nhalt: h\na 0 -> a 0 R\na 1 -> a 1 R\na _ -> h _ S"
    spec = parse_machine(text, name="every_word")
    words = WORDS_UP_TO_6[: 2**6 - 1]  # lengths 0..5
    expected = [(x, y) for x in words for y in words if len(x) < len(y) and y.startswith(x)]
    assert check_prefix_free_up_to(spec, 6) == sorted(
        expected, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1])
    )


def test_prefix_check_rejects_bad_budget():
    with pytest.raises(ValueError):
        check_prefix_free_up_to(zoo_machine("looper"), 0)


def test_run_bounded_matches_naive_oracle():
    words = [w for w in WORDS_UP_TO_6 if len(w) <= 4]
    for spec in random_machines(200):
        for word in words:
            for budget in (0, 1, 2, 5, 9, 40):
                res = run_bounded(spec, word, budget)
                assert (res.halted, res.steps_used) == naive_run(spec, word, budget), (spec.rules, word)


def test_prefix_check_matches_naive_oracle():
    # a word halts within b steps iff its oracle halting time is <= b
    for spec in random_machines(300, seed=1):
        times = {}
        for word in WORDS_UP_TO_6:
            halted, steps = naive_run(spec, word, 6)
            if halted:
                times[word] = steps
        for budget in range(1, 7):
            halting = [w for w, t in times.items() if len(w) <= budget and t <= budget]
            prefix_free = not any(x != y and y.startswith(x) for x in halting for y in halting)
            assert (check_prefix_free_up_to(spec, budget) == []) == prefix_free, (spec.rules, budget)
