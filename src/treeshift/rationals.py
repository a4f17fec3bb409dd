"""Scalar layer shared by every module: exact rationals, floats, +inf.

Exact mode keeps every quantity a ``Fraction``; a float anywhere in the
inputs demotes the computation to floating arithmetic, which the report
layer records.  ``+inf`` only ever arises from negative-power moments of
measures with an atom at zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

INF: float = math.inf

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalParseError(ValueError):
    """A string did not parse as integer/integer."""


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"`` or a bare integer (string or int) into a Fraction.

    Zero denominators and non-integer parts are rejected.  An integer part
    that ``int()`` refuses only for its length (more digits than
    ``sys.get_int_max_str_digits()``, 4300 by default) is named by its digit
    count, and the value is not echoed.
    """
    if isinstance(text, bool):
        raise RationalParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    num, sep, den = s.partition("/")
    n = None
    try:
        n = int(num)
        d = int(den) if sep else 1
    except ValueError as exc:
        # int() refuses a string of ASCII digits only past the int-string digit limit
        bad = (num if n is None else den).strip()
        bad = bad[1:] if bad.startswith(("+", "-")) else bad
        if bad.isascii() and bad.isdigit():
            raise RationalParseError(f"an integer of {len(bad)} digits is past Python's int-string limit "
                                     f"(sys.get_int_max_str_digits(), 4300 digits by default)") from None
        raise RationalParseError(f"not a rational: {text!r}") from exc
    if d == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(n, d)


def as_scalar(value) -> Scalar:
    """Coerce ints and rational strings to Fraction; keep floats floating."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"unsupported scalar type: {value!r}")


def to_float(x: Scalar, name: str) -> float:
    """float(x), or a ValueError naming the entry when x lies beyond float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} does not fit a float") from None


def is_exact(x: Scalar) -> bool:
    return isinstance(x, Fraction)


def mul0(a: Scalar, b: Scalar) -> Scalar:
    """Product under the 0*inf = 0 convention used by every consistency sum."""
    if a == 0 or b == 0:
        return ZERO
    return a * b


def _digits(n: int) -> str:
    """str(n) for an int of any size: past str(int)'s digit limit (4300 by default), str(Decimal(n))."""
    try:
        return str(n)
    except ValueError:
        import decimal
        return str(decimal.Decimal(n))


def format_struct(x) -> str:
    """Render a scalar for machine reports: rationals always as "p/q"."""
    if isinstance(x, Fraction):
        try:
            return f"{x.numerator}/{x.denominator}"
        except ValueError:  # past the int-to-str digit limit
            return f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    if isinstance(x, int):
        return f"{_digits(x)}/1"
    f = float(x)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return repr(f)


def format_human(x) -> str:
    """Render a scalar for humans: "3/4", "1", "inf", or a float repr."""
    if isinstance(x, (Fraction, int)):
        text = format_struct(x)
        return text[:-2] if text.endswith("/1") else text
    f = float(x)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return repr(f)


def log_scalar(x: Scalar) -> float:
    """Natural log, safe for rationals far outside float range."""
    if isinstance(x, Fraction):
        if x <= 0:
            raise ValueError("log of a nonpositive rational")
        # math.log accepts arbitrarily large ints, so huge fractions survive.
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def carleman_term(t: Scalar, n: int) -> float:
    """t ** (-1/(2n)) computed through logs; t may exceed float range."""
    return math.exp(-log_scalar(t) / (2.0 * n))
