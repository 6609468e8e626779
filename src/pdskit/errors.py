"""Exception types shared across the toolkit."""


class PdsKitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PdsKitError):
    """Malformed text or JSON input."""


class InvalidGraph(PdsKitError):
    """Self-loop, duplicate edge, or out-of-range vertex id."""


class Disconnected(PdsKitError):
    """A connected graph was required."""


class IsStar(PdsKitError):
    """The operation is undefined on stars."""


class InvalidArgument(PdsKitError):
    """A size, k, vertex set or parameter outside what the operation accepts."""


class InstanceTooLarge(PdsKitError):
    """Exhaustive search refused: instance above the enumeration cap."""


class NoPds(PdsKitError):
    """The graph admits no proportionally dense subgraph at all."""


class NotIndependent(PdsKitError):
    """A set claimed independent spans an edge."""


class NotAPds(PdsKitError):
    """A set claimed to be a PDS fails the proportional density check."""


class UnknownName(PdsKitError):
    """No fixture or benchmark suite registered under the requested name."""


class InvalidInstance(PdsKitError):
    """A cubic cycle description violates its invariants."""


class VerificationFailed(PdsKitError):
    """A solver's answer failed independent re-verification, or one of its
    invariants broke (a cubic chord pattern that the theorem rules out)."""
