"""Suite-wide settings, applied before any test module imports numpy.

The eigensolver tests call LAPACK's dense and banded drivers on small
matrices, which gain nothing from BLAS threads and slow down sharply when
another process holds a core; run BLAS single-threaded, as the benchmark
does.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def chaitin_runs(monkeypatch):
    """The argument tuples of every machine run the chaitin layer makes
    while the test runs, in call order."""
    from omegaphase import chaitin

    calls = []
    real = chaitin.run_bounded

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chaitin, "run_bounded", counted)
    return calls
