"""Exception types shared across the package."""


class GraphsackError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphsackError):
    """An instance or decomposition failed an invariant check."""


# -- instance validation ------------------------------------------------

class SelfLoop(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class IdOutOfRange(ValidationError):
    pass


class ZeroEdgeCost(ValidationError):
    pass


class MissingTerminal(ValidationError):
    pass


class BadInstanceJson(ValidationError):
    pass


# -- decomposition ------------------------------------------------------

class PinnedTooLarge(ValidationError):
    pass


class EdgeNeverIntroduced(ValidationError):
    pass


class EdgeIntroducedTwice(ValidationError):
    pass


class BrokenSubtreeConnectivity(ValidationError):
    pass


class BadNodeArity(ValidationError):
    pass


class RootNotPinnedBag(ValidationError):
    pass


# -- solvers and oracles ------------------------------------------------

class TooLarge(GraphsackError):
    """Brute-force oracle refused an instance above its size guard."""


class Unreachable(GraphsackError):
    pass


class NotATree(GraphsackError):
    pass


class BadEpsilon(GraphsackError):
    pass


class EngineMismatch(GraphsackError):
    """A solver was asked to handle a variant it does not support."""
