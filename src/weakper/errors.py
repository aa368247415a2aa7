"""Exception hierarchy for the package.

InputError subclasses signal invalid caller input; LimitError subclasses
signal an exceeded enumeration or size bound.  The CLI maps these to exit
codes 2 and 3 respectively.
"""


class WeakperError(Exception):
    """Base class for every error raised by this package."""


class InputError(WeakperError):
    """An argument is invalid or inconsistent."""


class LimitError(WeakperError):
    """A configured size or enumeration bound was exceeded."""


# field construction and arithmetic

class NotPrime(InputError):
    """The requested characteristic is not a prime number."""


class BadDegree(InputError):
    """An extension degree is below 1."""


class DegreeOutOfRange(LimitError):
    """A degree or field size falls outside the supported range."""


class FieldMismatch(InputError):
    """An element encoding does not belong to the expected field."""


class DivisionByZero(InputError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class NotASubfield(InputError):
    """The source field does not embed into the target field."""


class NoRootFound(WeakperError):
    """Internal invariant violation: an expected root does not exist."""


# polynomials

class ZeroPolynomial(InputError):
    """The zero polynomial is not a valid argument here."""


# matrices

class DimensionMismatch(InputError):
    """Matrix dimensions are incompatible."""


class BadDimension(InputError):
    """A dimension argument is out of range."""


class ExponentOverflow(LimitError):
    """The universal potency exponent of a cell exceeds its cap 2^63."""


class MinPolyNotFound(WeakperError):
    """Internal invariant violation: the powers I, M, ..., M^n of an n x n
    matrix are linearly independent, which Cayley-Hamilton rules out."""


# companion constructions

class NotMonic(InputError):
    """The polynomial is not monic."""


class ZeroDegree(InputError):
    """A polynomial of degree at least one is required."""


class FieldTooSmall(InputError):
    """The field has too few elements for the requested construction."""


class TraceNotRealizable(InputError):
    """No potent companion matrix with the requested trace exists."""


class EnumerationTooLarge(LimitError):
    """The requested enumeration exceeds the configured bound."""


# root-of-unity set constructions

class FieldTooLarge(LimitError):
    """A required extension field exceeds the configured size bound."""


# brute-force search

class SearchSpaceTooLarge(LimitError):
    """The brute-force candidate space exceeds the configured bound."""

