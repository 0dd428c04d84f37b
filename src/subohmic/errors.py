"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SizeError(DomainError):
    """A requested Hilbert-space dimension exceeds the hard cap."""


class BracketError(ValueError):
    """A root/minimum bracket does not contain a sign change."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its target residual."""
