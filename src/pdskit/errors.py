"""Exception types shared across the toolkit."""


class PdsKitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PdsKitError):
    """Malformed text or JSON input."""


class InvalidGraph(PdsKitError):
    """A graph or cubic instance that breaks its own invariants: a self-loop,
    duplicate edge, out-of-range vertex id or too many vertices or edges; a
    chord table that is no perfect matching of an even cycle off its edges."""


class InvalidArgument(PdsKitError):
    """A size, k, vertex set or parameter outside what the operation
    accepts: also a disconnected graph where a connected one is required,
    a star given to a reduction, a set claimed to be a PDS that is none, and
    a set claimed independent that spans an edge."""


class InstanceTooLarge(PdsKitError):
    """Exhaustive search refused: instance above the enumeration cap."""


class NoPds(PdsKitError):
    """The graph admits no proportionally dense subgraph at all."""


class UnknownName(PdsKitError):
    """No fixture or benchmark suite registered under the requested name."""


class VerificationFailed(PdsKitError):
    """A solver's answer failed independent re-verification, or one of its
    invariants broke (a cubic chord pattern that the theorem rules out)."""
