"""Exception types shared across the toolkit."""


class ConfigError(Exception):
    """Invalid configuration, malformed input file, or dimension mismatch."""


class DivergenceError(RuntimeError):
    """A parameter, momentum, or gradient became non-finite.

    Carries the global iteration at which the divergence was detected so
    runs can report where they blew up instead of silently clipping.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class WorkerError(RuntimeError):
    """A worker process failed other than by divergence.  A worker of a
    real run raised, died without reporting, or outlived the stop and was
    terminated, and the run's report carries the error; or a process
    running simulate-mode sweep points died without reporting."""
