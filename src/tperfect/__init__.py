"""Exact oracles, reductions and certifying pipelines for t-perfect graphs."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    PreconditionError,
    TPerfectError,
    UnboundedPolytopeError,
    UnknownVertexError,
    VerificationError,
)
from .graphs import Graph, odd_girth

__all__ = [
    "CapExceededError",
    "Graph",
    "PreconditionError",
    "TPerfectError",
    "UnboundedPolytopeError",
    "UnknownVertexError",
    "VerificationError",
    "odd_girth",
    "__version__",
]
