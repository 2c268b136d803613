"""Exception types shared across the package."""


class CoarseLabError(Exception):
    """Base class for all package errors."""


class ValidationError(CoarseLabError):
    """Malformed input: bad shapes, unknown points, inconsistent references."""


class MetricAxiomError(CoarseLabError):
    """A distance table violates a metric axiom.

    ``points`` carries the offending pair or triple of point ids.
    """

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = tuple(points)


class DisconnectedGraphError(CoarseLabError):
    """A graph metric was requested on a disconnected edge set."""


class PreconditionError(CoarseLabError):
    """A stated hypothesis of an operation fails on the given instance."""


class BoundViolationError(CoarseLabError):
    """An internally certified bound failed numerically.

    These bounds hold by construction, so seeing this error means a bug,
    not a falsified instance.
    """
