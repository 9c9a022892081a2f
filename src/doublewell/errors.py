"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """Bad user input: config file, mesh/window sizes, numbers too large."""


class ContractViolation(Exception):
    """A caller handed in non-conforming data (size mismatch, bad sign)."""


class SolverError(Exception):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class VerificationError(Exception):
    """A re-evaluated quantity disagrees with the stored report."""
