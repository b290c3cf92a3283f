"""Exception types shared across the package.

Every raise site prefixes its message with the module it came from
(e.g. "numerics: ...", "data: line 7: ...") so CLI errors identify the
failing component.
"""


class NovelcapError(Exception):
    """Base class for all package errors."""


class ShapeError(NovelcapError):
    """Operand shapes are inconsistent."""


class DomainError(NovelcapError):
    """Input outside the operation's domain (empty corpus, bad range, ...)."""


class NumericError(NovelcapError):
    """Non-finite value where a finite one is required."""


class ParseError(NovelcapError):
    """Malformed file content; message names the offending line."""


class SchemaError(NovelcapError):
    """Structurally valid file with invalid field content."""


class CoverageError(NovelcapError):
    """A required id or word is missing from the data it must appear in."""


class CheckpointError(NovelcapError):
    """Checkpoint file is unreadable, or was not trained on the vocabulary it is run with."""


class ConfigError(NovelcapError):
    """Invalid run configuration value."""
