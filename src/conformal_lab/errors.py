"""Exception types shared across the package.

Every exception carries a short machine-readable ``code`` so batch
reports and the CLI can classify failures without parsing messages.
``checked_integer`` is the one reader of integer-valued record fields.
"""


class ConformalLabError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class UnsupportedBackendError(ConformalLabError):
    """The requested (kind, dimension) pair is outside the catalog."""

    code = "UNSUPPORTED_BACKEND"


class UnsupportedDimensionError(ConformalLabError):
    """The operation is undefined in this dimension."""

    code = "UNSUPPORTED_DIMENSION"


class AliasingError(ConformalLabError):
    """A projection would exceed the quadrature exactness of the basis."""

    code = "ALIASING"


class KernelError(ConformalLabError):
    """The operator has a (near-)zero mode, so it cannot be inverted."""

    code = "KERNEL"


class NonpositiveFactorError(ConformalLabError):
    """A conformal factor must be strictly positive."""

    code = "NONPOSITIVE_FACTOR"


class HypothesisFailError(ConformalLabError):
    """A gating hypothesis (positive Yamabe sign, Q sign) does not hold."""

    code = "HYPOTHESIS_FAIL"


class ZeroFunctionError(ConformalLabError):
    """A nonzero function was required."""

    code = "ZERO_FUNCTION"


class ConfigError(ConformalLabError):
    """A run configuration failed validation; the message names the field."""

    code = "CONFIG_INVALID"


class BackendBuildError(ConformalLabError):
    """A catalog backend could not be constructed from its manifest record."""

    code = "BACKEND_BUILD_FAIL"


def checked_integer(key: str, value, least: int, error: type) -> int:
    """``value`` if it is an integer, not a boolean, of at least ``least``;
    otherwise ``error`` with a message naming the field ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise error(f"{key}: must be an integer >= {least}, got {value!r}")
    return value
