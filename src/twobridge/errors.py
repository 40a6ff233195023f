"""Exception types shared across the package."""


class TwoBridgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwoBridgeError):
    """Input outside the domain of an operation (bad fraction, bad form, ...)."""


class EvaluationError(TwoBridgeError):
    """A continued fraction hit a zero tail where a reciprocal is taken."""


class InternalError(TwoBridgeError):
    """An invariant that should hold for every valid input was violated.

    Seeing this means a bug, not a bad input (e.g. the all-even expansion
    of an odd/even fraction failed to be unique).
    """


class MeridianError(TwoBridgeError):
    """The meridian slope 1/0 was passed to a surgery computation."""


class NormalizationError(TwoBridgeError):
    """No unit multiple of a determinant is symmetric with value 1 at t=1."""


class SingularError(TwoBridgeError):
    """A Seifert matrix diagonal entry is zero, so the signature is not the
    sign sum of the diagonal (only a matrix built past validation)."""
