"""Suite-wide settings, applied before any test module imports numpy.

The eigensolver tests call LAPACK's dense and banded drivers on small
matrices, which gain nothing from BLAS threads and slow down sharply when
another process holds a core; run BLAS single-threaded, as the benchmark
does.
"""

import os
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
