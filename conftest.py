"""Pin BLAS and OpenMP to one thread before any test module imports numpy.

With a second thread, dense linear algebra in the tests slows sharply when
another process shares the cores: the dense ``eigh`` reference of a
1026 x 1026 operator took 26 s beside a one-thread suite sweep, against
0.67 s with one thread.  This file sits at the root of the repository
because ``perfbench/test_perfbench.py`` imports numpy and is collected
before ``tests/``.  A value already set in the environment wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
