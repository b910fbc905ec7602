"""Exception taxonomy shared by every module.

Each class states the process exit code the CLI gives it: validation
failures (shape, value, configuration) exit 2, container integrity
failures exit 3, and numerical failures (factorization breakdown,
singular solves) exit 4.
"""


class HbqError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ShapeError(HbqError):
    """Invalid shape, length, or value in input data."""

    exit_code = 2


class ConfigError(HbqError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class IntegrityError(HbqError):
    """Corrupt container: bad magic, CRC mismatch, truncation."""

    exit_code = 3


class NumericError(HbqError):
    """Numerical failure such as a non-positive-definite pivot."""

    exit_code = 4
