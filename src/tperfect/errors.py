"""Shared exception types."""


class TPerfectError(Exception):
    """Base class for all library errors."""


class UnknownVertexError(TPerfectError, KeyError):
    """A referenced vertex is not in the graph.  Its message prints plain,
    not quoted as KeyError prints its key."""

    __str__ = TPerfectError.__str__


class PreconditionError(TPerfectError, ValueError):
    """An operation precondition does not hold for the given input."""


class CapExceededError(TPerfectError, ValueError):
    """Input exceeds a configured size cap for combinatorial or polytope work."""


class UnboundedPolytopeError(TPerfectError, ValueError):
    """Vertex enumeration detected an unbounded (or out-of-box) input system."""


class VerificationError(TPerfectError, ValueError):
    """A machine-checked postcondition or certificate audit failed.

    Carries a ``detail`` payload naming the violated clause (and, where
    available, the offending structure, e.g. a violating odd cycle).
    """

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail
