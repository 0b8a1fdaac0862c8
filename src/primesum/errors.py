"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "SizeLimitError",
    "ConfigurationError",
    "InvariantViolation",
]


class DomainError(ValueError):
    """An operation was called with arguments outside its stated domain."""


class SizeLimitError(DomainError):
    """A workload guard was exceeded; the request is too large to enumerate."""


class ConfigurationError(ValueError):
    """An experiment configuration is invalid or infeasible at desk scale."""


class InvariantViolation(RuntimeError):
    """An unconditionally-true identity failed.

    This always indicates a bug in the implementation, never bad input; it is
    mapped to a distinct process exit code by the command line driver.
    """
