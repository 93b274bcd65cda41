"""Exception types shared across the semlink package.

Everything raised on purpose derives from SemlinkError so callers (and the
CLI) can distinguish data problems from genuine bugs.
"""


class SemlinkError(Exception):
    """Base class for all semlink errors."""


class FormatError(SemlinkError):
    """A file or record does not match its declared format."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + loc)
        self.reason = message
        self.path = path
        self.line = line


class TruncatedError(FormatError):
    """A binary embedding file ended before the declared entry count."""


class DuplicateLabelError(FormatError):
    """Two embedding entries share the same label."""


class NonFiniteError(FormatError, ValueError):
    """An embedding vector contains NaN or infinity."""


class MissingSeedError(SemlinkError):
    """A seed word has no vector in the embedding table."""


class RemapTargetError(SemlinkError):
    """A remap entry is a self-map, a chain, or points nowhere resolvable."""


class DuplicateEntityError(FormatError):
    """An article corpus or a types file contains the same entity id twice."""


class MissingWordVectorError(SemlinkError):
    """A type word of an entity cannot be resolved to a word vector."""


class MissingLabelError(SemlinkError):
    """A queried label is absent from an embedding table."""


class DimensionError(SemlinkError):
    """Vector operands have mismatched dimensions."""


class InvalidDocumentError(SemlinkError):
    """A linking document violates a structural precondition."""


class RelationArityError(SemlinkError):
    """Relation weight count does not match the model's relation count."""


class CapacityError(SemlinkError):
    """Exhaustive inference would enumerate too many assignments."""


class EmptyTrainingError(SemlinkError):
    """No training mention has a usable gold candidate."""


class AlignmentError(SemlinkError):
    """Prediction and gold mention sets do not line up."""

    def __init__(self, message, offenders=()):
        offenders = list(offenders)
        if offenders:
            message = f"{message}: {', '.join(map(str, offenders))}"
        super().__init__(message)
        self.offenders = offenders


class ConfigError(SemlinkError, ValueError):
    """A parameter is out of range, a configuration is invalid or names missing
    inputs, or the dictionary is empty.  Also a ValueError, like any bad argument."""


class StageError(SemlinkError):
    """A pipeline stage failed on bad data or a failed write; its previous
    outputs are left as they were."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
