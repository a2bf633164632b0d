"""Exception types shared across the toolkit, and the count check that
raises one."""

import numbers


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


def check_count(name, value):
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is an
    integer of at least 1; a float such as 2.0 or a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
