"""Set-up of every test run: one BLAS thread per process, as the benchmark runs.

A replay splits its batches across helper processes only in a process
that runs no other thread (``asqn.simulator._other_threads``), and
OpenBLAS starts a thread pool when numpy loads unless told otherwise.
numpy reads these variables at its import, which comes after this file."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
