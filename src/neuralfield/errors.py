"""Exception types shared across the package."""


class NeuralFieldError(Exception):
    """Base class for all library-specific failures."""


class ParseError(NeuralFieldError):
    """Config file could not be read or is not valid JSON."""


class SchemaError(NeuralFieldError):
    """Config document violates the schema; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonContractiveError(NeuralFieldError):
    """Requested time segment is too long for the fixed-point iteration."""


class MaxIterExceededError(NeuralFieldError):
    """Iteration failed to reach the requested tolerance."""


class NumericalInstabilityError(NeuralFieldError):
    """NaN or Inf appeared in a field state; carries a diagnostic snapshot."""

    def __init__(self, message, snapshot=None):
        self.snapshot = snapshot
        super().__init__(message)


class NotPSDError(NeuralFieldError):
    """Kernel matrix failed the positive-semidefiniteness check."""


class BoxTooSmallError(NeuralFieldError):
    """Eigenfunction has not decayed at the boundary of the computational box."""


class NoBoundStateError(NeuralFieldError):
    """The self-consistent well depth lies outside its bracket, or no depth binds a state."""


class OutputLockedError(NeuralFieldError, RuntimeError):
    """Output directory is held by another live run."""
