"""Exact rational scalars used throughout the package.

Probabilities, kernel entries, LP coefficients and tensor cells are all
`fractions.Fraction` values, so every comparison downstream is exact.
This module adds the text conventions on top of the stdlib type:
`as_rational`, the one reader of every rational from outside the package
("p/q", decimal and integer literals), `as_distribution`, the one check of
a probability law, and the "p/q" rendering of file formats and reports.
Arrays of rationals are integer numerators over one denominator, of the
dtype `int_dtype` picks; `check_cap` is the one refusal of every size cap,
and `check_int` of an integer parameter that is not an int or too small.
"""

from __future__ import annotations

import math
import re
import reprlib
import sys
from fractions import Fraction
from typing import Callable, Iterable, Union

import numpy as np

RationalLike = Union[Fraction, int, str]


def as_rational(value: RationalLike) -> Fraction:
    """The one reader of exact rationals: a Fraction, an int, or a literal
    string ("13/16", " 0.25 ", "1e-3") read from its text, never through a
    binary float.  Anything else is a ValueError naming the value: a float,
    a bool (JSON true is a mistake, not 1), a zero denominator, text that is
    not a literal, or a digit run or decimal exponent past Python's digit
    limit, the exponent refused before Fraction builds its power of ten."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{str(value).lower()} is a boolean, not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"{reprlib.repr(value)} is a {type(value).__name__}, not a rational")
    limit = sys.int_info.default_max_str_digits
    _, e, exponent = value.lower().rpartition("e")
    try:
        exponent = abs(int(exponent)) if e else 0
    except ValueError:  # no exponent to bound: Fraction refuses the text below
        exponent = 0
    if exponent > limit:
        raise ValueError(f"decimal exponent of rational literal {reprlib.repr(value)} exceeds {limit}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {reprlib.repr(value)}") from None
    except ValueError:
        digits = sys.get_int_max_str_digits()
        if digits and any(len(run) > digits for run in re.findall(r"\d+", value)):
            raise ValueError(f"rational literal {reprlib.repr(value)} has a run of more than {digits} digits") from None
        raise ValueError(f"not a rational literal: {reprlib.repr(value)}") from None


def as_distribution(values: Iterable[RationalLike], what: str) -> tuple[Fraction, ...]:
    """The one check of a probability law: `values`, read by `as_rational`, lie in
    [0, 1] and sum to 1, else one ValueError naming `what` and one entry or the sum."""
    law = tuple(as_rational(p) for p in values)
    total = sum(law, Fraction(0))
    outside = [p for p in law if not 0 <= p <= 1]
    if outside or total != 1:
        p = outside[0] if outside else total
        shown = _short(p.numerator) + (f"/{_short(p.denominator)}" if p.denominator > 1 else "")
        why = f"{shown} is outside [0, 1]" if outside else f"it sums to {shown}"
        raise ValueError(f"{what} is not a probability distribution: {why}")
    return law


def _short(value: int) -> str:
    """`value` cut to 20 characters as reprlib cuts long values, or about 10^k past Python's digit limit."""
    short = reprlib.Repr()
    short.maxlong = 20
    try:
        return short.repr(value)
    except ValueError:
        return "about " + "-" * (value < 0) + f"10^{round(abs(value).bit_length() * math.log10(2))}"


def as_integer(text: str) -> int:
    """int(text), or a ValueError naming the text, shortened, and Python's digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer of at most {sys.get_int_max_str_digits()} digits: {reprlib.repr(text)}") from None


def check_int(value: object, name: str, least: int) -> None:
    """Refuse a value that is not an int (a bool too) or is below `least`, in one ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {reprlib.repr(value)}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


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
