"""Staged approximation and witness procedures against the zoo's
documented halting sets and exact values, and against stages computed
from scratch by the naive simulator."""

import itertools
import math
from fractions import Fraction

import pytest

from omegaphase.chaitin import (
    omega_approx,
    omega_stage_values,
    witness_w,
    witness_wprime,
)
from omegaphase.dyadic import truncate
from omegaphase.tm import InputWalk, enumerate_input, parse_machine, walk_inputs
from omegaphase.zoo import ZOO, zoo_machine
from conftest import late_halter
from test_tm import PREFIX_FREE, assert_refused, least_nested_pair, naive_run, naive_stage_values


def reference_stage(spec, stage):
    """The definition of stage s, from scratch: run x_1..x_s for s steps
    each and add 2^-|x| for every input that halts."""
    total, halted = Fraction(0), []
    for i in range(1, stage + 1):
        word = enumerate_input(i)
        if naive_run(spec, word, stage)[0]:
            total = total + Fraction(1, 2 ** len(word))
            halted.append(word)
    return total, tuple(halted)


def staged(spec, stage):
    """``omega_approx`` off a walk at the stage's own budget, as the omega
    command makes it."""
    return omega_approx(walk_inputs(spec, stage), stage)


ORACLE_MACHINES = [zoo_machine(name) for name in ZOO] + [late_halter(99)]


@pytest.mark.parametrize("spec", ORACLE_MACHINES, ids=lambda spec: spec.name)
def test_table_matches_from_scratch_stages(spec):
    entry = ZOO.get(spec.name)
    if entry is not None and not entry.prefix_free:
        # its stage sums are no halting probability: below the budget its
        # halting set needs, the walk does not yet see the nested pair
        for stage in range(entry.settle_budget):
            approx = staged(spec, stage)
            assert (approx.value, approx.halting_inputs) == reference_stage(spec, stage), stage
        for stage in (entry.settle_budget, 64, 200):
            assert_refused(spec, stage, least_nested_pair(entry.halting_set))
        return
    for stage in range(0, 65):
        approx = staged(spec, stage)
        assert (approx.value, approx.halting_inputs) == reference_stage(spec, stage), stage
    # stages below the walk's budget, out of order: no request depends on
    # the ones before it
    walk = walk_inputs(spec, 200)
    for stage in (50, 10, 200, 3):
        approx = omega_approx(walk, stage)
        assert (approx.value, approx.halting_inputs) == reference_stage(spec, stage), stage
    assert omega_stage_values(walk, 200) == naive_stage_values(spec, 200)


def test_stages_outside_the_walk_budget_refused():
    walk = walk_inputs(zoo_machine("omega34"), 6)
    assert omega_approx(walk, 6).value == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^stage 7 is outside 0\.\.6, the input walk's budget$"):
        omega_approx(walk, 7)
    for stage in (7, -1):
        with pytest.raises(ValueError, match=rf"^stage {stage} is outside"):
            omega_stage_values(walk, stage)
        with pytest.raises(ValueError, match=rf"^stage {stage} is outside"):
            witness_w(walk, Fraction(1, 2), stage)
    with pytest.raises(ValueError, match="^stage 7 is outside"):
        witness_wprime(walk, "1000000", 7)


def test_late_halter_counts_from_its_halting_time():
    spec = late_halter(99)
    walk = walk_inputs(spec, 1000)
    assert omega_approx(walk, 99).value == Fraction(0)
    assert omega_approx(walk, 100).halting_inputs == ("",)
    assert witness_w(walk, Fraction(0), 1000) == 100


def test_witness_w_to_stage_1000_makes_at_most_2000_runs(tm_runs):
    # every stage up to 1000 is visited; from scratch that is 1,000 runs
    # of up to 1,000 steps each, and 500,500 when each stage reruns them
    walk = walk_inputs(zoo_machine("omega34"), 1000)
    runs = tm_runs.advances
    assert runs <= 2000
    assert witness_w(walk, Fraction(3, 4), 1000) is None
    assert tm_runs.advances == runs  # the stages simulate nothing


def test_witness_w_stops_at_its_stage(walk_lookups):
    # omega58's stage 12 is the first above 1/2: inputs past x_12 are
    # never looked up
    assert witness_w(walk_inputs(zoo_machine("omega58"), 600), Fraction(1, 2), 600) == 12
    assert walk_lookups == [enumerate_input(i) for i in range(1, 13)]


def test_stage_zero_is_zero():
    for name in PREFIX_FREE:
        assert staged(zoo_machine(name), 0).value == Fraction(0)


def test_omega34_stage_thresholds():
    # hand trace: "0" halts in 2 steps at index 2; "11" in 3 steps at index 7
    spec = zoo_machine("omega34")
    values = [staged(spec, s).value for s in range(0, 9)]
    expected = [
        Fraction(0),  # s=0
        Fraction(0),  # s=1: only "" tried, loops
        Fraction(1, 2),  # s=2: "0" halts within 2
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(3, 4),  # s=7: "11" finally enumerated
        Fraction(3, 4),
    ]
    assert values == expected


def test_halt_on_zero_stage_two():
    spec = zoo_machine("halt_on_zero")
    assert staged(spec, 2).value == Fraction(1, 2)
    assert staged(spec, 1).value == Fraction(0)


def test_monotone_and_settles_at_exact_value():
    for name in PREFIX_FREE:
        entry = ZOO[name]
        spec = zoo_machine(name)
        horizon = entry.settle_budget + 20
        values = [staged(spec, s).value for s in range(horizon + 1)]
        for a, b in zip(values, values[1:]):
            assert a <= b
        for s in range(entry.settle_budget):
            assert values[s] < entry.omega or entry.omega == Fraction(0)
        for s in range(entry.settle_budget, horizon + 1):
            assert values[s] == entry.omega


def truncated_diagonal(spec, horizon):
    """[stage-1 value to 1 bit, ..., stage-s value to s bits], as the
    omega command's CSV writes it."""
    stages = staged(spec, horizon).stage_values
    return [truncate(v, s) for s, v in enumerate(stages, start=1)]


def test_truncated_sequence_stabilises():
    for name in PREFIX_FREE:
        entry = ZOO[name]
        spec = zoo_machine(name)
        horizon = max(entry.settle_budget, entry.omega.denominator.bit_length() - 1) + 10
        seq = truncated_diagonal(spec, horizon)
        for s in range(entry.settle_budget, horizon):
            assert seq[s] == truncate(entry.omega, s + 1)
        assert seq[-1] == entry.omega


def test_truncated_sequence_looper_all_zero():
    seq = truncated_diagonal(zoo_machine("looper"), 12)
    assert all(v == Fraction(0) for v in seq)


def test_slow_halter_threshold():
    seq = truncated_diagonal(zoo_machine("slow_halter"), 7)
    assert seq[:4] == [Fraction(0)] * 4
    assert seq[4:] == [Fraction(1, 2)] * 3


def test_witness_w_examples():
    o34 = walk_inputs(zoo_machine("omega34"), 1000)
    assert witness_w(o34, Fraction(1, 2), 100) == 7  # first stage beyond 1/2
    assert witness_w(o34, Fraction(3, 4), 1000) is None  # stage values never reach 3/4
    assert witness_w(o34, Fraction(0), 100) == 2  # any halt beats 0
    with pytest.raises(ValueError):
        witness_w(o34, Fraction(1), 10)


def test_witness_w_iff_below_exact():
    for name in PREFIX_FREE:
        entry = ZOO[name]
        budget = entry.settle_budget + 5
        walk = walk_inputs(zoo_machine(name), budget)
        for k in range(0, 16):
            phi = Fraction(k, 16)
            outcome = witness_w(walk, phi, budget)
            if phi < entry.omega:
                assert outcome is not None and outcome <= budget
            else:
                assert outcome is None


def test_wprime_all_zero_loops():
    for name in PREFIX_FREE:
        walk = walk_inputs(zoo_machine(name), 6)
        for m in (1, 3, 6):
            assert witness_wprime(walk, "0" * 8, m) is False


def test_wprime_flip_at_exact_value():
    o34 = walk_inputs(zoo_machine("omega34"), 7)
    # stage 7 value is exact: 1/2 and 5/8 sit below 3/4, 3/4 itself does not
    assert witness_wprime(o34, "1000000", 7) is True
    assert witness_wprime(o34, "1010000", 7) is True
    assert witness_wprime(o34, "1100000", 7) is False
    # early stages underestimate: 1/2 < stage-2 value 1/2 fails
    assert witness_wprime(o34, "10", 2) is False


def test_wprime_requires_valid_m():
    o34 = walk_inputs(zoo_machine("omega34"), 7)
    with pytest.raises(ValueError):
        witness_wprime(o34, "101", 4)
    with pytest.raises(ValueError):
        witness_wprime(o34, "101", 0)


def desk_scale_wprime(walk, phi, m):
    """Halting verdicts of the finite-precision witness on every best
    m-bit approximation of phi."""
    scaled = phi * 2**m
    words = {math.floor(scaled), math.ceil(scaled) % (1 << m)}
    return [witness_wprime(walk, f"{word:0{m}b}", m) for word in words]


def test_transition_theorem_desk_scale():
    # phases strictly inside (0, 1): (a) below the exact value some stage
    # witnesses every best approximation; (b) at or above it, none ever does
    m_cap = 24
    for name in PREFIX_FREE:
        entry = ZOO[name]
        walk = walk_inputs(zoo_machine(name), m_cap)
        for k in range(1, 32):
            phi = Fraction(k, 32)
            if phi < entry.omega:
                hits = [
                    m
                    for m in range(1, m_cap + 1)
                    if all(desk_scale_wprime(walk, phi, m))
                ]
                assert hits, (name, str(phi))
            else:
                for m in range(1, m_cap + 1):
                    assert not all(desk_scale_wprime(walk, phi, m)), (name, str(phi))


def test_preserves_lemma_desk_scale():
    # phi + 2^-m eventually sits below the m-th diagonal truncation
    for name in PREFIX_FREE:
        entry = ZOO[name]
        if entry.omega == Fraction(0):
            continue
        walk = walk_inputs(zoo_machine(name), 64)  # m0 + 24 < 64
        for phi in [Fraction(1, 8), Fraction(1, 4), entry.omega + Fraction(-1, 64)]:
            if not 0 <= phi < entry.omega:
                continue
            m0 = None
            for m in range(1, 40):
                omega_m = truncate(omega_approx(walk, m).value, m)
                if phi + Fraction(1, 2**m) < omega_m:
                    m0 = m
                    break
            assert m0 is not None, (name, str(phi))
            for m in range(m0, m0 + 25):
                omega_m = truncate(omega_approx(walk, m).value, m)
                assert phi + Fraction(1, 2**m) < omega_m


def test_prefix_violation_breaks_kraft():
    # the non-prefix-free fixture overshoots 1: the staged sum is only a
    # probability for prefix-free machines, so the walk refuses these
    # machines and their records are built here
    violator = InputWalk("prefix_violator", 2, {"": 1, "0": 2})
    assert omega_approx(violator, 2).value == Fraction(3, 2)
    assert_refused(zoo_machine("prefix_violator"), 2, ("", "0"))
    # halts on reading a first 0, so every word starting with 0 halts: by
    # stage 11 the words 0, 00, 01 and 000..011 add up to 3/2
    greedy = parse_machine("start: a\nhalt: h\na 0 -> h 0 S\na 1 -> a 1 S\na _ -> a _ S", name="greedy")
    tails = ("".join(bits) for n in range(11) for bits in itertools.product("01", repeat=n))
    walk = InputWalk("greedy", 11, {"0" + tail: 1 for tail in tails})
    assert omega_approx(walk, 11).value == Fraction(3, 2)
    assert_refused(greedy, 11, ("0", "00"))


def test_report_shape():
    approx = staged(zoo_machine("omega34"), 10)
    report = approx.report()
    assert report == {
        "machine": "omega34",
        "stage": 10,
        "omega_s": "3/4",
        "halting_inputs": ["0", "11"],
    }
