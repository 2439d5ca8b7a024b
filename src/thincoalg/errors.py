"""Exception types shared across the package.

Input validation problems raise ``ValueError`` subclasses so callers can
distinguish malformed data (CLI exit code 2) from negative verdicts on
well-formed data (exit code 1).
"""

from __future__ import annotations


class SignatureError(ValueError):
    """Malformed signature: bad permutation, unknown op, a group too large
    to enumerate, ..."""


class CoalgebraError(ValueError):
    """Malformed coalgebra: state index out of range, signature mismatch, ..."""


class TermError(ValueError):
    """Malformed term: wrong child count, empty period, unknown op, ..."""


class NonThinError(RuntimeError):
    """An operation that requires a thin input was given a non-thin one.

    Carries the verdict produced by the thinness check, including the
    incomparable-cycle witness.
    """

    def __init__(self, verdict, message: str = "coalgebra is not thin"):
        super().__init__(message)
        self.verdict = verdict
