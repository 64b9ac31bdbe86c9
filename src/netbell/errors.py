"""Exception types shared across the package. Every refusal raises one of
the three leaf types, and the CLI reads its exit code off the type."""


class NetbellError(ValueError):
    """Base class for all package-specific errors."""


class InvalidInput(NetbellError):
    """An input the package refuses: a scenario, parameter, state,
    observable, model or document that is malformed or does not fit
    (CLI exit 2)."""


class TooLarge(NetbellError):
    """A run whose search space, term table or Hilbert-space dimension
    exceeds its guard (CLI exit 3)."""


class ZeroNorm(NetbellError):
    """A signed observable sum annihilates the state, so the certificate
    operator for that term is undefined (certify exits 5)."""
