"""Exception hierarchy for the package: one kind per CLI exit code.

InputError signals invalid caller input (exit 2), LimitError an exceeded
size or enumeration bound (exit 3), and any other WeakperError a failed
check or an internal invariant violation (exit 1).  A class below these
three is kept only where code outside this module must tell it from its
base: an except clause names it, or it is also a built-in exception.
"""


class WeakperError(Exception):
    """Base class for every error raised by this package."""


class InputError(WeakperError):
    """An argument is invalid or inconsistent."""


class LimitError(WeakperError):
    """A configured size or enumeration bound was exceeded."""


class DivisionByZero(InputError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class FieldTooSmall(InputError):
    """The field has too few elements for the requested construction."""


class TraceNotRealizable(InputError):
    """No potent companion matrix with the requested trace exists."""


class EnumerationTooLarge(LimitError):
    """The requested enumeration exceeds the configured bound."""


class SearchSpaceTooLarge(LimitError):
    """The brute-force candidate space exceeds the configured bound."""
