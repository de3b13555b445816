"""Exact value carriers: rational parsing/formatting and scaled integers.

All decision arithmetic in this package runs on integers in global scaled
units (every input rational is multiplied through by a common denominator).
:class:`ScaledValue` wraps such an integer or the distinguished infinity,
which absorbs addition and compares greater than every finite value.
Floating point is never used in comparisons.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def parse_rational(value) -> Fraction:
    """Parse a user-supplied number into an exact :class:`Fraction`.

    Accepts ints, Fractions, ``"p/q"`` strings, and decimal strings such as
    ``"0.25"``.  Floats are converted through their shortest decimal
    representation, so a literal typed as ``0.1`` means exactly 1/10.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def parse_number(value):
    """:func:`parse_rational`, but an integral value comes back as an int.

    An optionally signed run of ASCII digits goes straight to ``int()``,
    skipping the ``Fraction`` string parser, which takes about 20 times
    longer; every other token goes through ``parse_rational`` with the same
    values and the same errors.
    """
    if type(value) is int:
        return value
    if type(value) is str:
        text = value.strip()
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isdigit() and digits.isascii():
            return int(text)
    f = parse_rational(value)
    return f.numerator if f.denominator == 1 else f


def parse_numbers(values: list) -> list:
    """``[parse_number(v) for v in values]``, a column at a time: the same
    values, and the same error for the first token that fails.

    A column of ints is returned as it is, and one of ints and Fractions
    has its integral Fractions made ints.  A column of strings is joined
    and checked once: if every token is a non-empty run of ASCII digits,
    each goes through ``int``; if the text holds only ASCII digits, signs
    and slashes, each distinct token is read once, by :func:`_token`.  Any
    other column is read token by token, strings by :func:`_token` and
    every other token by :func:`parse_number`, so whitespace, ``_``,
    non-ASCII digits, decimals, floats and bools behave as there.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values
    if kinds <= {int, Fraction}:  # parsed already
        return [v.numerator if type(v) is Fraction and v.denominator == 1 else v
                for v in values]
    if kinds == {str}:
        text = "".join(values)
        if text.isascii():
            if text.isdigit() and all(values):
                return list(map(int, values))
            if text.translate(_SIGNS_AND_SLASHES).isdigit():
                # a Fraction takes about 1 us to build; first occurrences
                # keep the column's order, so the first fault raises
                known = {s: _token(s) for s in dict.fromkeys(values)}
                return list(map(known.__getitem__, values))
    return [_token(v) if type(v) is str else parse_number(v) for v in values]


_SIGNS_AND_SLASHES = str.maketrans("", "", "+-/")


def _token(text: str):
    """:func:`parse_number` of a string.  An optionally signed run of ASCII
    digits goes through ``int``, and ``"p/q"`` with such a ``p`` and a
    non-zero run of ASCII digits ``q`` makes the Fraction from two ints;
    every other string goes through :func:`parse_number`."""
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    if digits.isdigit() and text.isascii() and (not slash or q.isdigit()):
        try:
            if not slash:
                return int(text)
            den = int(q)
            if den:
                f = Fraction(int(p), den)
                return f.numerator if f.denominator == 1 else f
        except ValueError:  # past the int string-conversion limit
            pass
    return parse_number(text)


_NUMERATOR = operator.attrgetter("numerator")


def least_numerator(values) -> int:
    """The least numerator of a non-empty column of ints and Fractions.
    Its sign is the sign of the column's minimum, since denominators are
    positive, and no Fraction is compared to find it."""
    return min(map(_NUMERATOR, values))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as an exact ``"p/q"`` string (q always present)."""
    return f"{value.numerator}/{value.denominator}"


def format_scaled(value: int, scale: int) -> str:
    """``format_rational(Fraction(value, scale))`` for ints, without
    building the Fraction: both reduced by their gcd."""
    g = math.gcd(value, scale)
    return f"{value // g}/{scale // g}"


class ScaledValue:
    """An exact integer in scaled units, or infinity.

    Infinity is absorbing under addition and strictly greater than every
    finite value; two infinities compare equal.  Finite arithmetic is plain
    arbitrary-precision integer arithmetic, so it never overflows or rounds.
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        if value is not None and not isinstance(value, int):
            raise TypeError(f"scaled value must be int or None, got {type(value)}")
        self.value = value

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def finite(self) -> int:
        if self.value is None:
            raise ValueError("value is infinite")
        return self.value

    def __add__(self, other):
        o = other.value if isinstance(other, ScaledValue) else other
        if self.value is None or o is None:
            return INFINITY
        return ScaledValue(self.value + o)

    __radd__ = __add__

    def _cmp_key(self):
        # infinity sorts above every int
        return (1,) if self.value is None else (0, self.value)

    def __eq__(self, other):
        if isinstance(other, ScaledValue):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        o = other if isinstance(other, ScaledValue) else ScaledValue(other)
        return self._cmp_key() < o._cmp_key()

    def __le__(self, other):
        o = other if isinstance(other, ScaledValue) else ScaledValue(other)
        return self._cmp_key() <= o._cmp_key()

    def __gt__(self, other):
        return not self.__le__(other)

    def __ge__(self, other):
        return not self.__lt__(other)

    def __repr__(self):
        return "ScaledValue(inf)" if self.value is None else f"ScaledValue({self.value})"


INFINITY = ScaledValue(None)
