"""Exception types shared across the package."""


class MarginForgeError(Exception):
    """Base class for all package errors."""


class DimMismatchError(MarginForgeError):
    """Operands have incompatible dimensions."""


class ShapeMismatchError(MarginForgeError):
    """Array shapes disagree with the expected layout."""


class ZeroNormError(MarginForgeError):
    """A vector with (near-)zero norm reached a cosine computation."""


class EmptyInputError(MarginForgeError):
    """An operation that needs at least one element got none."""


class IndexOutOfRangeError(MarginForgeError):
    """An index falls outside the valid range."""


class LambdaOutOfRangeError(MarginForgeError):
    """The DSE/SSE blending weight must lie in [0, 1]."""


class NonSquareError(MarginForgeError):
    """A square matrix was required."""


class ParseError(MarginForgeError):
    """A file does not conform to its declared format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateIdError(MarginForgeError):
    """The same item id appears more than once."""


class ChecksumError(MarginForgeError):
    """Stored checksum does not match the file contents."""


class NonFiniteError(MarginForgeError):
    """A training step produced a NaN or infinite loss or gradient."""


class ConfigError(MarginForgeError):
    """A configuration value or combination is invalid."""


class UnknownKeyError(ConfigError):
    """A config file contains a key that is not recognized."""


class ConfigTypeError(ConfigError):
    """A config value cannot be converted to, or violates, its declared type."""


class MissingKeyError(ConfigError):
    """A required config key was not provided."""


class error_context:
    """Re-raise a package error leaving the ``with`` block as
    ``<prefix>: <message>``, of the same type and chained to it.

    A class, not a ``contextlib`` generator: the training loop enters one
    per batch, and a generator there made perfbench's ``c6`` run about 2%
    slower (2-core x86_64).
    """

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, MarginForgeError):
            raise type(exc)(f"{self.prefix}: {exc}") from exc
