"""Prefix-free Turing machines: text format, canonical input enumeration,
and step-bounded execution on a one-way-infinite tape.

Inputs are words over {0, 1}, held as plain ``str``.  Machines are
deterministic, use the alphabet {0, 1, blank}, and live on a
single right-infinite tape filled with blanks beyond the input; the
tape is a ``bytearray`` of the symbols' ASCII codes.  Budgets
are explicit everywhere: a bounded run can certify halting, never
non-halting.  One walk of a machine's input decision tree,
``walk_inputs``, is the only simulation and the one place prefix-freeness
is decided: it refuses a machine whose halting words within the budget
hold a nested pair, and its record of halting times is what every
Chaitin stage is read from.  A record is no proof of prefix-freeness, as
a pair beyond the budget is not seen.  Its step loop, ``_advance``,
stops early on two provably infinite loop shapes, which changes nothing
the record holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError

__all__ = [
    "BLANK",
    "MOVES",
    "MachineSpec",
    "MachineParseError",
    "InputWalk",
    "parse_machine",
    "load_machine",
    "enumerate_input",
    "walk_inputs",
]

BLANK = "_"
_BLANK_BYTE = ord(BLANK)
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "S")
_MAX_BRANCHES = 200_000  # input decision-tree nodes one walk may visit

Rule = tuple[str, str, str, str, str]  # state, read, next_state, write, move


class MachineParseError(ParseError):
    """Raised on malformed machine files."""


class MachineSpec:
    """A deterministic machine: states, start/halt, and a total rule table,
    immutable after construction."""

    __slots__ = ("name", "start", "halt", "rules", "_rule_map")

    def __init__(self, name: str, start: str, halt: str, rules: tuple[Rule, ...]):
        # keyed by (state, read byte), as the tape holds the symbols' codes
        rule_map = {(state, ord(read)): (nxt, ord(write), move) for state, read, nxt, write, move in rules}
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "halt", halt)
        object.__setattr__(self, "rules", tuple(sorted(rules)))
        object.__setattr__(self, "_rule_map", rule_map)
        self._validate()

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("MachineSpec is immutable")

    def _validate(self) -> None:
        if self.start == self.halt:
            raise MachineParseError(f"start state {self.start!r} is the halt state")
        owners = {state for state, *_ in self.rules}
        if self.halt in owners:
            raise MachineParseError("halt state must have no outgoing rules")
        if self.start not in owners:
            raise MachineParseError(f"start state {self.start!r} has no rules")
        for state in sorted(self.states - {self.halt}):  # names the least gap
            for sym in SYMBOLS:
                if (state, ord(sym)) not in self._rule_map:
                    raise MachineParseError(
                        f"transition table not total: missing {state} {sym}"
                    )

    @property
    def states(self) -> frozenset[str]:
        found = {self.start, self.halt}
        for state, _, nxt, _, _ in self.rules:
            found.add(state)
            found.add(nxt)
        return frozenset(found)

    def step(self, state: str, read: int) -> tuple[str, int, str]:
        """(next state, written byte, move) for ``state`` reading the
        byte ``read``, a symbol's ASCII code."""
        return self._rule_map[(state, read)]

    def __repr__(self) -> str:
        return f"MachineSpec({self.name!r}, states={len(self.states)})"


def parse_machine(text: str, name: str = "unnamed") -> MachineSpec:
    """Parse the line-oriented machine format.

    Headers ``start: <state>`` and ``halt: <state>`` (plus optional
    ``name:``), then one rule per line::

        state symbol -> state symbol move

    Symbols are 0, 1, or ``_`` for blank; moves are L, R, S.  Duplicate
    rules, unknown symbols, and missing or repeated headers are rejected
    with the offending line number.
    """
    start = halt = None
    rules: list[Rule] = []
    seen: dict[tuple[str, str], int] = {}
    header_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and "->" not in line:
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key not in ("name", "start", "halt"):
                raise MachineParseError(f"unknown header {key!r}", lineno)
            if key in header_lines:
                raise MachineParseError(f"repeated {key!r} header; first at line {header_lines[key]}", lineno)
            header_lines[key] = lineno
            if key == "name":
                name = value
            elif key == "start":
                start = value
            else:
                halt = value
            continue
        if "->" not in line:
            raise MachineParseError(f"expected 'state symbol -> state symbol move'", lineno)
        lhs, _, rhs = line.partition("->")
        lhs_parts = lhs.split()
        rhs_parts = rhs.split()
        if len(lhs_parts) != 2 or len(rhs_parts) != 3:
            raise MachineParseError(f"malformed rule {line!r}", lineno)
        state, read = lhs_parts
        nxt, write, move = rhs_parts
        if read not in SYMBOLS or write not in SYMBOLS:
            raise MachineParseError(f"symbol must be one of 0, 1, _", lineno)
        if move not in MOVES:
            raise MachineParseError(f"move must be one of L, R, S", lineno)
        if (state, read) in seen:
            raise MachineParseError(
                f"duplicate rule for ({state}, {read}); first at line {seen[(state, read)]}",
                lineno,
            )
        seen[(state, read)] = lineno
        rules.append((state, read, nxt, write, move))
    if start is None:
        raise MachineParseError("missing 'start:' header")
    if halt is None:
        raise MachineParseError("missing 'halt:' header")
    return MachineSpec(name, start, halt, tuple(rules))


def load_machine(path) -> MachineSpec:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path).rsplit("/", 1)[-1].removesuffix(".tm")
    return parse_machine(text, name=name)


def enumerate_input(i: int) -> str:
    """The i-th word (i >= 1) in length-then-lexicographic order.

    x_1 is the empty word, x_2 = "0", x_3 = "1", x_4 = "00", ...; this is
    the bijection stripping the leading 1 from the binary form of i.
    """
    if i < 1:
        raise ValueError(f"input index must be >= 1, got {i}")
    return bin(i)[3:]


def _advance(
    spec: MachineSpec, state: str, head: int, steps: int, tape: bytearray, budget: int, open_end: bool
) -> tuple[str, str, int, int]:
    """Step from (state, head, steps) until the machine halts, ``steps``
    reaches ``budget`` or a provable loop shows, updating ``tape`` (the
    symbols' ASCII codes) in place; returns (outcome, state, head, steps)
    with outcome "halts", "undecided" or "loops".

    Cells past the end of ``tape`` are blank; with ``open_end`` they are
    input not yet fixed instead, and the run stops with outcome "reads"
    before a step would read one.  The loops are a stay-in-place self
    loop and running right past the end of ``tape``.  A left move at
    cell 0 leaves the head in place (one-way tape).
    """
    halt, size = spec.halt, len(tape)
    while state != halt:
        if steps >= budget:
            return "undecided", state, head, steps
        if head < size:
            read = tape[head]
        elif open_end:
            return "reads", state, head, steps
        else:
            read = _BLANK_BYTE
        nxt, write, move = spec.step(state, read)
        if nxt == state and ((move == "S" and write == read) or (move == "R" and head >= size)):
            return "loops", state, head, steps
        if head < size:
            tape[head] = write
        elif write != _BLANK_BYTE:
            tape.extend(BLANK.encode() * (head - size))
            tape.append(write)
            size = head + 1
        if move == "R":
            head += 1
        elif move == "L" and head:
            head -= 1
        steps += 1
        state = nxt
    return "halts", state, head, steps


@dataclass(frozen=True)
class InputWalk:
    """Which inputs of one machine halt within a step budget, and after
    how many steps, as one walk of its input decision tree found them.

    ``halting`` maps each input of length <= ``budget`` that halts within
    the budget to its step count.  ``walk_inputs`` returns a record only
    when these words hold no nested pair, so no word in it is a proper
    prefix of another.
    """

    name: str
    budget: int
    halting: dict[str, int]

    def halting_steps(self, word: str) -> int | None:
        """The steps after which the binary ``word`` halts, or None if it
        does not halt within the budget; a word longer than the budget
        is refused, as the walk did not run it."""
        if len(word) > self.budget:
            raise ValueError(f"input {word!r} is longer than the walk's budget {self.budget}")
        return self.halting.get(word)


def _nested_pairs(halting: dict[str, int], cylinders: list[str]) -> Iterator[tuple[str, str]]:
    """Nested pairs (x, y) among the halting words, x a proper prefix of
    y, including the least under (|x|, x, |y|, y).  Each cylinder word w
    gives (w, w + "0"); a sweep over the words in sorted order gives each
    word y paired with its shortest halting prefix."""
    for w in cylinders:
        yield w, w + "0"
    # sorted, a word's extensions follow it as one run; on the chain each
    # word is a prefix of the next, so after the pops it holds y's prefixes
    chain: list[str] = []
    for y in sorted(halting):
        while chain and not y.startswith(chain[-1]):
            chain.pop()
        if chain:
            yield chain[0], y
        chain.append(y)


def walk_inputs(spec: MachineSpec, budget: int) -> InputWalk:
    """Run ``spec`` for up to ``budget`` steps on every input of length
    <= ``budget`` at once, by exploring the machine's input-reading
    decision tree: cells are fixed lazily as the head first visits them,
    with an extra branch for "the input ends here", so no 2^budget
    enumeration happens and each branch is simulated once.

    The halting words must be prefix-free, as the staged sums read off
    the record are a halting probability only then (they can exceed 1
    otherwise).  Raises ValueError once the tree exceeds
    ``_MAX_BRANCHES`` branches, and after the walk when the halting words
    nest, naming the least nested pair (x, y) under (|x|, x, |y|, y).  A
    record returned is no proof of prefix-freeness: a pair beyond the
    budget is not seen.  At budget 0 nothing runs and nothing halts.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    # branch: (state, head, steps, tape, fixed input prefix, input still open)
    stack = [(spec.start, 0, 0, bytearray(), "", True)]
    halting: dict[str, int] = {}
    # words halted on without reading past them, so every extension halts
    cylinders: list[str] = []
    branches = 0

    while stack:
        branches += 1
        if branches > _MAX_BRANCHES:
            raise ValueError(
                f"cannot check that {spec.name!r} is prefix-free: input decision tree exceeded "
                f"{_MAX_BRANCHES} branches; machine reads too much input for this budget"
            )
        state, head, steps, tape, prefix, open_end = stack.pop()
        outcome, state, head, steps = _advance(spec, state, head, steps, tape, budget, open_end)
        if outcome == "halts":
            halting[prefix] = steps
            if open_end and len(prefix) < budget:
                cylinders.append(prefix)
        elif outcome == "reads":
            # the head is on the first unfixed cell: branch on its contents
            # or on the input ending there
            if head < budget:  # inputs longer than the budget are out of scope
                stack.append((state, head, steps, tape + b"0", prefix + "0", True))
                stack.append((state, head, steps, tape + b"1", prefix + "1", True))
            stack.append((state, head, steps, tape, prefix, False))
    least = min(
        _nested_pairs(halting, cylinders),
        key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]),
        default=None,
    )
    if least is not None:
        raise ValueError(f"machine {spec.name!r} is not prefix-free: {least[0]!r} and {least[1]!r} both halt")
    return InputWalk(spec.name, budget, halting)
