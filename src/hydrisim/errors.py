"""Exception hierarchy shared by all modules.

Each class maps to one CLI exit code so scripted callers can tell a bad
input file from a solver breakdown from a violated runtime invariant.
"""


class HydrisimError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(HydrisimError):
    """Malformed or inconsistent configuration input."""

    exit_code = 2


class MaterialError(ConfigError):
    """Material parameters violate a standing assumption."""


class StepFailure(HydrisimError):
    """An incremental solver failed to produce an acceptable state.

    ``iterations`` is what an iterative solver spent before it gave up.
    """

    exit_code = 3

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


# Round-off allowance of the nonnegativity invariants chi >= 0, w >= 0
NEG_TOL = 1e-12


class InvariantViolation(HydrisimError):
    """A guaranteed discrete property failed at runtime; the run aborts."""

    exit_code = 4

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step
