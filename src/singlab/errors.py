"""Exception hierarchy for the singlab library.

``SinglabError`` covers every failure caused by invalid input or an invalid
requested operation; the CLI maps it to exit code 2.  ``RowLimitExceeded`` is
the resource guard (exit code 3) and ``InternalCheckError`` signals a broken
internal cross-check, which is a bug, never a user error.  ``_check_int``
is the one integer-argument check of the library: the type of an integer
field or argument and its lower bound, raised as the error class of the
caller.
"""

__all__ = [
    "SinglabError",
    "NotInvertible",
    "DivisionByZero",
    "InvalidChain",
    "NonMinimalChain",
    "IndexOutOfRange",
    "InvalidSite",
    "NotMinusOneCurve",
    "InvalidN",
    "InvalidConfiguration",
    "UnsupportedFamily",
    "RowLimitExceeded",
    "InternalCheckError",
    "MismatchError",
]


class SinglabError(ValueError):
    """Base class for all input/contract violations raised by singlab."""


def _check_int(name: str, value, least: int | None = None, error=SinglabError) -> None:
    # value must be an int but not a bool (an int subclass, caught by
    # identity), and not below least; a failure raises error.
    if not isinstance(value, int) or value is True or value is False:
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"need {name} >= {least}, got {value}")


class NotInvertible(SinglabError):
    """No modular inverse exists (non-coprime arguments or modulus < 2), or an
    argument of mod_inverse is not an int."""


class DivisionByZero(SinglabError):
    """A nested continued-fraction denominator vanished during evaluation."""


class InvalidChain(SinglabError):
    """A chain entry is not a positive integer."""


class NonMinimalChain(SinglabError):
    """An operation requiring all entries >= 2 was given a chain with a 1."""


class IndexOutOfRange(SinglabError):
    """A curve or node index is outside the chain."""


class InvalidSite(SinglabError):
    """A free-point blow-up was requested at a position that would make the
    dual graph non-linear (only the outward side of an end curve is valid)."""


class NotMinusOneCurve(SinglabError):
    """blow_down was asked to contract an entry that is not 1."""


class InvalidN(SinglabError):
    """non_minimal_graph requires n >= 3."""


class InvalidConfiguration(SinglabError):
    """A contraction interval is out of bounds, overlaps another one, or is
    not a recognized type-T substring."""


class UnsupportedFamily(SinglabError):
    """family_minimal_graph only covers the (curves, s) pairs with published
    minimal-resolution graphs."""


class RowLimitExceeded(SinglabError):
    """A scan would emit more rows than the configured limit allows."""


class InternalCheckError(AssertionError):
    """Two independent internal evaluation routes disagreed (a bug)."""


class MismatchError(InternalCheckError):
    """The attach-family pipeline and its closed forms disagreed (a bug)."""
