"""Exception types shared across the package."""


class PsyndError(Exception):
    """Base class for all package-specific errors."""


class EmptySetError(PsyndError, ValueError):
    """Operation requires a nonempty set."""


class BadBoundError(PsyndError, ValueError):
    """A bound parameter is out of its allowed range."""


class BadEpsilonError(PsyndError, ValueError):
    """Epsilon must be strictly positive."""


class NoRowError(PsyndError, LookupError):
    """No row of the grid admits a witness at the given parameters."""


class NotVanishingError(PsyndError, ValueError):
    """Polynomial family member does not vanish at 0."""


class NotIntegralError(PsyndError, ValueError):
    """Polynomial does not take integer values on the integers."""


class DegreeTooLowError(PsyndError, ValueError):
    """Polynomial degree below what the operation requires."""


class NotNormalFormError(PsyndError, ValueError):
    """Polynomial family does not satisfy the normal-form condition."""


class WindowExhaustedError(PsyndError, ValueError):
    """A windowed symbolic word ran out of letters for the request."""


class RadiusExhaustedError(PsyndError, ValueError):
    """Block truncation radius too small for the requested action."""
