"""Exception types shared across the solver modules."""


class TwoFluidError(Exception):
    """Base class for solver errors."""


class NonconvergenceError(TwoFluidError):
    """An iterative solver hit its iteration limit.

    Carries the final residual (and, for the VI solver, the worst
    complementarity violation) so callers can report how far off it was.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularMatrixError(TwoFluidError):
    """Dense factorization met a pivot that is zero to machine precision."""


class OutOfDomainError(TwoFluidError):
    """A point evaluation fell outside every mesh cell."""


class BracketError(TwoFluidError):
    """A root bracket does not contain a sign change."""


class SolverFailureError(TwoFluidError):
    """A failure that aborts a run; `ipcs.run` sets `attempt`, the index
    of the failed step attempt (from 0), and `t_seconds`, the simulated
    time that attempt started from."""

    attempt = None
    t_seconds = None


class StepFailureError(SolverFailureError):
    """A time-step sub-solve failed; names the sub-step that broke."""

    def __init__(self, substep, cause):
        super().__init__(f"time step failed in sub-step '{substep}': {cause}")
        self.substep = substep
        self.cause = cause


class StagnationError(SolverFailureError):
    """The adaptive controller pushed dt below dt_min on a rejected step."""


class ConfigError(TwoFluidError):
    """Configuration text could not be parsed or holds an invalid value."""

    def __init__(self, message, line=None, key=None):
        if key is not None:
            message = f"key '{key}': {message}"
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key
