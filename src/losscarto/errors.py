"""Exception types shared across the package.

Everything derives from LosscartoError so callers can catch the whole
family, and from ValueError where the failure is really a bad argument.
"""


class LosscartoError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(LosscartoError, ValueError):
    """Malformed architecture or a dimension mismatch against it."""


class DegreeError(LosscartoError, ValueError):
    """Polynomial does not have the degree the operation requires."""


class EnumerationBudgetError(LosscartoError, ValueError):
    """Activation-set enumeration would exceed the configured cap."""


class ZeroVirtualPolynomialError(LosscartoError, ValueError):
    """Factorization requested for an identically zero virtual polynomial."""


class BoundaryError(LosscartoError, ValueError):
    """Weight point sits exactly on an activation wall (some z == 0)."""


class AdjacencyError(LosscartoError, ValueError):
    """Regions passed to wall_between do not differ in exactly one flag."""


class SamplingError(LosscartoError, RuntimeError):
    """Witness sampling found no realizable region within the budget."""


class SpuriousKinkError(LosscartoError, RuntimeError):
    """Refinement discovered the bracketed 'kink' is not actually there."""


class HarvestError(LosscartoError, RuntimeError):
    """Could not collect enough sheet points near a seed kink."""


class DegeneracyError(LosscartoError, RuntimeError):
    """Point cloud does not span a unique hyperplane."""


class RecoveryError(LosscartoError, RuntimeError):
    """Architecture recovery failed (missing or inconsistent sheets)."""


class QueryBudgetExceeded(LosscartoError, RuntimeError):
    """Loss oracle refused a query past the configured budget."""


class NonFiniteLossError(LosscartoError, RuntimeError):
    """Loss oracle returned NaN or an infinity."""


class InstanceError(LosscartoError, ValueError):
    """Instance file failed validation."""
