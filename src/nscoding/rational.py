"""Exact rational scalars used throughout the package.

Probabilities, kernel entries, LP coefficients and tensor cells are all
`fractions.Fraction` values, so every comparison downstream is exact.
This module adds the text conventions on top of the stdlib type:
parsing of "p/q" / decimal / integer literals and the canonical "p/q"
rendering used by file formats and CLI reports.  Arrays of rationals are
integer numerators over one denominator; `int_dtype` picks their dtype.
`check_cap` is the one refusal of every size cap in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

import numpy as np

RationalLike = Union[Fraction, int, str]


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal.

    Accepts "p/q" with integer p and positive integer q, plain integers
    ("7", "-3") and decimal strings ("0.25"); decimals convert exactly
    (the text never passes through binary floating point).

    Raises
    ------
    ValueError
        If the text is not a rational literal.
    ZeroDivisionError
        If the denominator is zero.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a string, got {type(text).__name__}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise
    except (ValueError, TypeError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction (floats and bools
    are rejected).

    Floats are deliberately not accepted: a float argument is almost
    always a bug in code that promises exact arithmetic.  Nor is a bool,
    although it is an int: True as a kernel entry or coefficient is a
    mistake, not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"cannot use {type(value).__name__} as an exact rational")


def read_rational(value: RationalLike) -> Fraction:
    """as_rational for a value read from a file or the command line.

    A zero denominator there is bad input, not an arithmetic fault, so
    it is a ValueError naming the literal.  JSON true and false load as
    bool, a subclass of int, and are refused rather than read as 1 and 0.
    """
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is a boolean, not a rational")
    try:
        return as_rational(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {value!r}") from None


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    value = as_rational(value)
    return str(value)


def int_dtype(bound: int, cells: int):
    """int64 when no sum over `cells` values of magnitude <= bound can
    overflow it, else Python ints in an object array (same array code)."""
    return np.int64 if bound * cells < 2**63 else object


def check_cap(cap: int, log2: float, count: Callable[[], int], what: str, unit: str, hint: str = "") -> None:
    """Refuse a count above `cap` with ValueError("<what> needs <count> <unit>,
    above the cap <cap><hint>"), the one wording of every size cap.  `log2`
    is the count's base-2 logarithm, or a lower bound on it, from the
    instance's sizes; `count()`, the exact count, is called only when `log2`
    is at most 64, so a count past every cap (all are below 2^64) is never
    built.  A count past 64 bits reads `about 2^k`."""
    value = count() if log2 <= 64 else None
    if value is None or value > cap:
        if value is None or value.bit_length() > 64:
            value = f"about 2^{round(log2 if value is None else math.log2(value))}"
        raise ValueError(f"{what} needs {value} {unit}, above the cap {cap}{hint}")
