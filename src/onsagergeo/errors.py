"""Error types raised by the library.

Every numerical failure mode gets its own class so callers (and the CLI's
exit-code mapping) can dispatch on the type name.
"""


class OnsagerGeoError(Exception):
    """Base class for all library-specific errors."""


class DisconnectedGraph(OnsagerGeoError):
    """The rate matrix induces a graph that is not connected."""


class DetailedBalanceViolation(OnsagerGeoError):
    """A stationary distribution exists but the chain is not reversible."""


class DegenerateStationary(OnsagerGeoError):
    """The stationary distribution has a zero/negative entry or is not unique."""


class BoundaryPoint(OnsagerGeoError):
    """A probability vector touches the simplex boundary where an interior
    point is required."""


class NonconvexF(OnsagerGeoError):
    """f'' <= 0 was encountered while evaluating a mean function."""


class NoDivergenceDefined(OnsagerGeoError):
    """The mobility model has no paired divergence (geometric means)."""


class NearSingular(OnsagerGeoError):
    """The response matrix has extra (near-)kernel directions; the point is
    effectively on the boundary or the mobility degenerates.

    `row` is the index of the failing matrix in a (B, n, n) stack, None for
    a single matrix or when the failure cannot be placed."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class BvpNoConvergence(OnsagerGeoError):
    """The geodesic shooting solver failed to meet its residual target."""


class StepLeavesSimplex(OnsagerGeoError):
    """An integrator step left the interior of the simplex even after the
    maximum number of step halvings."""


class DegeneratePlane(OnsagerGeoError):
    """Sectional curvature requested for linearly dependent directions."""


class EqualComponents(OnsagerGeoError):
    """A closed-form expression is singular because two adjacent probability
    components coincide."""


class FloatingPointFailure(OnsagerGeoError):
    """A floating-point operation overflowed, divided by zero or gave an
    invalid result (the CLI's commands run with numpy raising on these; a
    model parameter too large for double precision overflows)."""
