"""Suite-wide settings, applied before any test module imports numpy.

The eigensolver tests make many small BLAS calls inside ARPACK, which
gain nothing from BLAS threads and slow down sharply when another
process holds a core; run BLAS single-threaded, as the benchmark does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
