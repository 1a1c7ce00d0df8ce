"""Scalar arithmetic helpers for the two evaluation modes.

Everything downstream works over plain Python scalars: ``float`` in FLOAT
mode, ``fractions.Fraction`` (or ``int``) in RATIONAL mode.  Exactness is a
property of the inputs, not of a global switch; these helpers coerce and
parse scalars so each mode stays internally consistent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ParameterError

Real = Union[int, float, Fraction]

FLOAT = "float"
RATIONAL = "rational"


def validate_arithmetic(mode: str) -> str:
    if mode not in (FLOAT, RATIONAL):
        raise ParameterError(f"arithmetic must be '{FLOAT}' or '{RATIONAL}', got {mode!r}")
    return mode


def is_finite(x: Real) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    return True


def coerce(x: Real, mode: str) -> Real:
    """Coerce a scalar into the representation of the given mode.

    RATIONAL coercion of a float is exact (binary floats are rationals).
    FLOAT coercion of a value beyond the float range raises ParameterError.
    """
    if mode == FLOAT:
        try:
            return float(x)
        except OverflowError as exc:
            raise ParameterError("value beyond the float range") from exc
    if isinstance(x, (int, Fraction)):
        return x
    return Fraction(x)


def exact_value(x: float) -> Real:
    """The exact value of a finite float: an int where it is integral (so a
    sign pattern's -1.0 prints as -1, not "-1/1"), else a Fraction."""
    return int(x) if x.is_integer() else Fraction(x)


def parse_scalar(text: str) -> Fraction:
    """Parse a decimal or 'p/q' literal exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse scalar literal {text!r}") from exc


def parse_coeff_list(text: str, arithmetic: str = FLOAT) -> tuple:
    """Comma-separated scalar literals, as floats in FLOAT mode."""
    items = [s for s in (piece.strip() for piece in text.split(",")) if s]
    return tuple(coerce(parse_scalar(s), arithmetic) for s in items)


def scalar_to_json(x: Real):
    """JSON-ready form: floats stay numbers, exact scalars become 'p/q' strings."""
    if isinstance(x, float):
        return x
    if isinstance(x, int):
        return x
    return f"{x.numerator}/{x.denominator}"
