"""Exception types shared across the package."""


class StreamscopeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(StreamscopeError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SelfLoopError(StreamscopeError):
    pass


class DuplicateEdgeError(StreamscopeError):
    pass


class LabelOutOfRangeError(StreamscopeError):
    pass


class MissingVertexCountError(StreamscopeError):
    pass


class VertexCountMismatchError(StreamscopeError):
    pass


class BadWeightError(StreamscopeError):
    pass


class UnweightedStreamError(StreamscopeError):
    pass


class InvalidKError(StreamscopeError):
    pass


class OutOfOrderTimeStepError(StreamscopeError):
    pass


class EdgeAlreadyInTreeError(StreamscopeError):
    pass


class EdgeAlreadyInDiscError(StreamscopeError):
    pass


class DiscTooLargeError(StreamscopeError):
    pass


class RadiusMismatchError(StreamscopeError):
    pass


class TooManyEdgesError(StreamscopeError):
    pass


class EmptyVertexSetError(StreamscopeError):
    pass


class ComponentTooLargeError(StreamscopeError):
    pass


class AllEstimatesNonpositiveError(StreamscopeError):
    pass


class DisconnectedError(StreamscopeError):
    pass


class BadWError(StreamscopeError):
    pass


class InvariantError(StreamscopeError):
    """An internal invariant failed (checked where an assert would not be)."""
