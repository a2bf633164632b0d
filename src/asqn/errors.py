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
    """A worker of a real (threaded) run raised something other than a
    divergence; the run was stopped and its report carries the error."""
