"""Exception types shared across the package."""


class NetbellError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(NetbellError, ValueError):
    """A matrix that must be Hermitian is not, within tolerance."""


class DimensionMismatch(NetbellError, ValueError):
    """Operator and state (or two operators) have incompatible dimensions."""


class NonUnitVector(NetbellError, ValueError):
    """A Bloch vector that must have unit length does not."""


class InvalidDimension(NetbellError, ValueError):
    """A Hilbert-space dimension outside the supported range."""


class InvalidScenario(NetbellError, ValueError):
    """A (kind, m, n) combination that does not define a functional."""


class MissingObservable(NetbellError, ValueError):
    """An observable assignment does not cover every required input."""


class ShapeMismatch(NetbellError, ValueError):
    """A strategy or model whose response tables do not fit the scenario."""


class SearchSpaceTooLarge(NetbellError, ValueError):
    """Deterministic enumeration would exceed the search-space guard."""


class NegativeEntry(NetbellError, ValueError):
    """A matrix that must be entrywise nonnegative has a negative entry."""


class ZeroNorm(NetbellError, ValueError):
    """A signed observable sum annihilates the state, so the certificate
    operator for that term is undefined."""


class OutOfRange(NetbellError, ValueError):
    """A scalar parameter outside its documented range."""


class DimensionGuard(NetbellError, ValueError):
    """Requested total Hilbert-space dimension exceeds the guard."""
