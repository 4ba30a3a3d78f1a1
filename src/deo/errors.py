"""Exception hierarchy shared by every module in the toolkit."""


class DeoError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(DeoError):
    """Vectors that must share a dimension do not."""


class ZeroVectorError(DeoError):
    """A vector with (near-)zero norm where a direction is required."""


class InsufficientDataError(DeoError):
    """Not enough samples for the requested fit."""


class NotStronglyConvexError(DeoError):
    """The contrastive objective has no finite minimizer for these weights."""


class ParseError(DeoError):
    """Model output could not be parsed into a decomposition."""


class TransportError(DeoError):
    """Network or HTTP failure that survived the retry budget."""


class FormatError(DeoError):
    """A file does not match its declared on-disk format."""


class DuplicateIdError(DeoError):
    """The same record id appears more than once."""


class EmptyInputError(DeoError):
    """An operation that needs at least one item (text, vector, document or
    ranked list) got none."""


class MissingDecompositionError(DeoError):
    """Offline run found no cached decomposition for a query."""


class MissingEmbeddingError(DeoError):
    """No stored embedding for a text and no endpoint to compute one."""


class MissingGoldError(DeoError):
    """No judged-relevant document available for a trajectory export."""


class ConfigError(DeoError):
    """Malformed configuration file or value."""
