"""Suite-wide settings, applied before any test module imports numpy.

The eigensolver tests call LAPACK's dense and banded drivers on small
matrices, which gain nothing from BLAS threads and slow down sharply when
another process holds a core; run BLAS single-threaded, as the benchmark
does.

Also the fixtures that count what the tm layer runs, and the big-Fraction
oracle of the square energies that test_phase and test_cli import.
"""

import os
from fractions import Fraction
from types import SimpleNamespace

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def tm_runs(monkeypatch):
    """What the tm layer simulates while the test runs: ``walks`` lists
    the (machine name, budget) of every input walk, in call order, and
    ``advances`` counts the step-loop runs they made."""
    from omegaphase import cli, tm

    runs = SimpleNamespace(walks=[], advances=0)
    real_walk, real_advance = tm.walk_inputs, tm._advance

    def walk(spec, budget):
        runs.walks.append((spec.name, budget))
        return real_walk(spec, budget)

    def advance(*args):
        runs.advances += 1
        return real_advance(*args)

    monkeypatch.setattr(tm, "walk_inputs", walk)
    monkeypatch.setattr(cli, "walk_inputs", walk)
    monkeypatch.setattr(tm, "_advance", advance)
    return runs


@pytest.fixture
def walk_lookups(monkeypatch):
    """Every word whose halting time is looked up in an input walk while
    the test runs, in call order."""
    from omegaphase.tm import InputWalk

    words = []
    real = InputWalk.halting_steps

    def looked_up(walk, word):
        words.append(word)
        return real(walk, word)

    monkeypatch.setattr(InputWalk, "halting_steps", looked_up)
    return words


def ceil_root(value: int, k: int) -> int:
    """Least r >= 1 with r**k >= value, by counting up."""
    r = 1
    while r**k < value:
        r += 1
    return r


def square_energy_formula(model, s, regime, marked):
    """Side s's energy bounds (lo, hi) in big Fractions, written out from
    the formulas: tail 2^-(n - m(n)) with m(n) = max(1, n - ceil(n^(1/4))),
    synthesis error n^2 2^-(e(n) + 1), T^2 = s^(2d) xi^(2s) and, when
    ``marked``, the marker [-3u, -u] with u = 4^-(C (s + ceil(s^(1/8)))).
    No sign is checked."""
    n = s - 5
    tail = Fraction(1, 2 ** (n - max(1, n - ceil_root(n, 4))))
    delta_hat = Fraction(n * n, 2 ** (model._delta_exponent(n) + 1))
    t_sq = Fraction(s ** (2 * model.poly_degree) * model.xi ** (2 * s))
    upper = model.comp_upper_k / t_sq
    if regime == "halting":
        lo, hi = Fraction(0), upper * (tail + delta_hat)
    elif regime == "nonhalting":
        lo, hi = (1 - tail - delta_hat) / t_sq, upper
    else:
        lo, hi = Fraction(0), upper
    if marked:
        unit = Fraction(1, 4 ** (model.C * (s + ceil_root(s, 8))))
        lo, hi = lo - 3 * unit, hi - unit
    return lo, hi
