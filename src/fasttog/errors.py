"""Exception hierarchy shared across the package."""


class FastToGError(Exception):
    """Base class for all errors raised by this package."""


class TripleFormatError(FastToGError):
    """A line of a triple file did not parse."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NotFoundError(FastToGError):
    """An entity was requested that is not present in the graph."""


class ModularityUndefinedError(FastToGError):
    """Modularity was requested on a graph with no structural edges."""


class InvalidCommunityError(FastToGError):
    """A community violated a structural precondition (e.g. empty member set)."""


class InvalidPartitionError(FastToGError):
    """A partition does not disjointly cover the expected node set."""


class ResolutionError(FastToGError):
    """A start entity could not be resolved against the loaded graph."""


class DataError(FastToGError):
    """A dataset record or a line of a data file violated the expected schema.

    ``kind`` names what ``index`` counts: ``"record"`` for a dataset record,
    ``"line"`` for a line of a trace file.
    """

    def __init__(self, index: int, message: str, kind: str = "record"):
        super().__init__(f"{kind} {index}: {message}")
        self.index = index


class GatewayError(FastToGError):
    """Base class for generation-gateway failures."""


class TransportError(GatewayError):
    """Transient transport failure that exhausted the retry budget."""


class ProviderError(GatewayError):
    """Non-retryable rejection from the generation provider."""


class ScriptExhaustedError(GatewayError):
    """A scripted gateway ran out of replies."""


class ReplyParseError(GatewayError):
    """A model reply could not be parsed into the expected shape."""

    def __init__(self, message: str, raw_reply: str):
        super().__init__(f"{message}; raw reply: {raw_reply!r}")
        self.raw_reply = raw_reply
