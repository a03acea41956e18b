"""Exact rational arithmetic conventions, and the rules for record fields.

All probabilities, thresholds, and LP data in this package are
`fractions.Fraction` values: arbitrary precision, always in lowest terms,
denominator positive.  No floating point ever enters a decision path.

JSON interchange encodes a rational as the string ``"num/den"`` (``"num"``
when the denominator is 1), which `parse_rational` reads back losslessly.

This module owns the validation of every scalar field of the five instance
schemas, and every constructor and loader calls it: `parse_rational` and
`check_probability` for rationals, `check_field` for naturals, integers and
flags.  A natural or an integer is a JSON integer: a bool (JSON ``true`` is
not the number 1) and a float are refused.  A flag is a JSON bool.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceededError, InstanceError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(value: str | int) -> Fraction:
    """Parse ``"num/den"``, ``"num"``, or a plain int into a Fraction."""
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not a rational: {value!r}") from exc
    raise InstanceError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical ``num/den`` string (lowest terms; bare ``num`` for integers).

    A numerator or denominator over Python's int-to-str digit limit raises
    `CapExceededError`.
    """
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        raise CapExceededError(f"rational cannot be written as text: {exc}") from exc


def check_field(value, what: str, least: int | None = 0, *, flag: bool = False):
    """Validate one integer or flag field of an instance record and return it.

    An integer field must be an `int` that is not a `bool` and, unless
    `least` is None, at least `least` (so the default is a natural number).
    A flag field (``flag=True``) must be a `bool`.
    """
    if isinstance(value, bool):
        ok = flag
    else:
        ok = not flag and isinstance(value, int) and (least is None or value >= least)
    if not ok:
        kind = "a bool" if flag else "an integer" if least is None else f"an integer >= {least}"
        raise InstanceError(f"{what} must be {kind}, got {value!r}")
    return value


def check_probability(value: Fraction, what: str = "probability") -> Fraction:
    """Validate 0 <= value <= 1 and return it."""
    if not ZERO <= value <= ONE:
        raise InstanceError(f"{what} {value} outside [0, 1]")
    return value
