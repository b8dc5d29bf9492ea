"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: config errors exit 2, numeric
failures exit 4, and every other error (data, schema, shape) exits 3.
"""


class ContentionError(Exception):
    """Base class for all package errors."""


class ShapeError(ContentionError, ValueError):
    """Operands have incompatible or malformed dimensions."""


class ConfigError(ContentionError, ValueError):
    """Invalid configuration value or file."""


class DataError(ContentionError, ValueError):
    """Dataset content violates a documented precondition."""


class SchemaError(DataError):
    """A file does not match its declared or documented format."""


class NumericError(ContentionError, RuntimeError):
    """A computation produced or encountered non-finite values."""
