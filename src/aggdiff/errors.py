"""Exception types shared across the package."""


class RegimeError(ValueError):
    """Model parameters violate the supercritical parameter regime."""


class ZeroField(ValueError):
    """An operation that needs a nonzero density received the zero field."""


class GridMismatch(ValueError):
    """Field and kernel (or two fields) live on incompatible grids."""


class UnsupportedDimension(ValueError):
    """The radial kernel reduction is implemented for d = 3 only."""


class NoConvergence(RuntimeError):
    """Iterative solver ended without a valid result; best iterate is attached."""

    def __init__(self, message: str, profile=None):
        self.profile = profile
        super().__init__(message)


class NotConverged(ValueError):
    """A converged extremal profile is required but was not supplied."""


class NonFiniteValue(FloatingPointError):
    """NaN or infinity appeared in a field during time integration."""
