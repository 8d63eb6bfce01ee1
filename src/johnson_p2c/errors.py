"""Exception hierarchy shared by every module."""


class CoverError(Exception):
    """Base class for all domain errors."""


class NotAVertex(CoverError):
    pass


class EqualEndpoints(CoverError):
    pass


class TooFewVertices(CoverError):
    pass


class BadQuad(CoverError):
    pass


class OutOfTheoremRange(CoverError):
    pass


class SelectionExhausted(CoverError):
    pass


class SpliceEdgeNotFound(CoverError):
    pass


class TooLargeForOracle(CoverError):
    pass


class SweepBudget(CoverError):
    pass


class InvariantViolated(CoverError):
    """A construction step broke an invariant that its lemma guarantees."""
