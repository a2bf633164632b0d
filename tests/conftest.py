"""Set-up of every test run: one BLAS thread per process, as the benchmark runs.

A replay splits its batches across helper processes only in a process
that runs no other thread (``asqn.owners._other_threads``), and
OpenBLAS starts a thread pool when numpy loads unless told otherwise.
numpy reads these variables at its import, which comes after this file.

``--split-from-first-batch`` sets ``asqn.owners.FORK_AFTER_S`` to 0 for the
session, so every replay that may split does so from its first batch;
a test that sets the threshold itself keeps its own value."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def pytest_addoption(parser):
    parser.addoption("--split-from-first-batch", action="store_true",
                     help="split every replay across helper processes from its first batch")


def pytest_configure(config):
    if config.getoption("--split-from-first-batch"):
        # imported here, after the variables above: numpy loaded first
        # would start a BLAS pool, beside which a replay forks nothing
        from asqn import owners
        owners.FORK_AFTER_S = 0.0
