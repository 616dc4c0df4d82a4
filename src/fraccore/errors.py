"""Exception types shared across the package."""


class FraccoreError(Exception):
    """Base class for all package-specific errors."""


class MalformedSystem(FraccoreError):
    """A linear system whose rows do not match its variable count."""


class DimensionMismatch(FraccoreError):
    """Vector or point of the wrong dimension for the object at hand."""


class CapExceeded(FraccoreError):
    """An enumeration exceeded its configured cap."""


class IndexOutOfRange(FraccoreError):
    """A firm or coalition index outside the valid range."""


class CountMismatch(FraccoreError):
    """Two firm systems compared index-wise must have the same firm count."""


class NotClosedManifold(FraccoreError):
    """The complex is not a closed pseudomanifold of the expected kind."""


class NotIsolated(FraccoreError):
    """A balanced component's simplicial neighborhood touches another one."""


class BoundaryTouchesBalanced(FraccoreError):
    """A balanced facet lies on the isolating neighborhood's boundary."""


class NotSimplicial(FraccoreError):
    """A vertex map that does not send every facet onto a target face."""


class NotSphere(FraccoreError):
    """A complex failing the 3-sphere combinatorial checks."""


class CoboundaryUnsolvable(FraccoreError):
    """No integral 1-cochain has the required coboundary (H^2 != 0)."""
