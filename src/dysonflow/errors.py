"""Exception types shared across the library."""


class DysonflowError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(DysonflowError):
    """A matrix required to be Hermitian is not, beyond tolerance.

    When the matrix is one of a stack, ``index`` carries its position.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotPositiveDefinite(DysonflowError):
    """A matrix required to be positive definite is not.

    When the failure occurs inside a time series, ``t`` carries the
    offending sample time; inside a stack of matrices, ``index`` carries
    its position.
    """

    def __init__(self, message, t=None, index=None):
        super().__init__(message)
        self.t = t
        self.index = index


class UnsupportedHamiltonian(DysonflowError):
    """The requested construction has no solution for this Hamiltonian."""


class StepTooLarge(DysonflowError):
    """The fixed integration step exceeds the local error bound."""


class SingularDysonMap(DysonflowError):
    """A Dyson map with |det| below threshold cannot be inverted."""


class ConfigInvalid(DysonflowError):
    """A scenario configuration failed validation."""
