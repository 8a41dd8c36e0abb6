"""Exact slopes and the input grammar they are read with.

A slope is an element of Q union {inf}, written p/q with gcd(p, q) = 1 and
q >= 0; the infinity slope is 1/0 and the zero slope is 0/1.  Arcs and
regions of slopes live in `slopes`, which re-exports the names defined here.
"""

import functools
import math
import re


class Record:
    """Base of the immutable value classes.

    ``_fields`` names the slots that make up the value: equality (with an
    instance of the same class only), hashing, the repr and pickling read
    them, and a subclass's ``__init__`` sets them through ``_init``.
    Assigning to or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots through the
        # refusing __setattr__.
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def lowest_terms(num, den):
    """The slope num/den in lowest terms with den >= 0; 0/0 raises."""
    g = math.gcd(num, den)
    if den == 0:
        if num == 0:
            raise ValueError("0/0 is not a slope")
        return 1, 0
    if den < 0:
        g = -g
    return (num, den) if g == 1 else (num // g, den // g)


def format_terms(num, den):
    """The text of the slope with lowest terms (num, den): inf, p or p/q."""
    return str(num) if den == 1 else f"{num}/{den}" if den else "inf"


@functools.total_ordering
class ExtRational(Record):
    """A slope p/q in lowest terms with q >= 0, where 1/0 is infinity.

    The constructor normalizes, so equal slopes have identical field values
    and structural equality is slope equality.  0/0 is rejected.  Instances
    are immutable: assigning to a field raises AttributeError.
    """

    __slots__ = _fields = ("num", "den")

    def __init__(self, num, den=1):
        # type(), not isinstance(): bool is a subclass of int.
        if type(num) is not int or type(den) is not int:
            raise ValueError("slope components must be integers, got "
                             f"({num!r}, {den!r})")
        self._init(*lowest_terms(num, den))

    def __eq__(self, other):
        if other.__class__ is not ExtRational:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def is_infinite(self):
        return self.den == 0

    def is_finite(self):
        return self.den != 0

    def is_zero(self):
        return self.num == 0

    def __lt__(self, other):
        if not isinstance(other, ExtRational):
            raise TypeError(f"cannot compare slope with {type(other).__name__}")
        if self.den == 0 or other.den == 0:
            raise ValueError("order comparison is undefined for the infinity "
                             "slope")
        # q > 0 on both sides, so cross multiplication preserves order.
        return self.num * other.den < other.num * self.den

    def __str__(self):
        return format_terms(self.num, self.den)

    def __repr__(self):
        return f"ExtRational({self})"


INF = ExtRational(1, 0)
ZERO = ExtRational(0)
ONE = ExtRational(1)
MINUS_ONE = ExtRational(-1)


# The one input grammar: an ASCII integer, and a slope is "inf" or an
# integer with an optional integer denominator.  int() alone would also take
# "+3", "1_0" and non-ASCII digits such as "\u0663".
INT_RE = re.compile(r"-?[0-9]+")
SLOPE_RE = re.compile(rf"inf|({INT_RE.pattern})(?:/({INT_RE.pattern}))?")
_match_slope = SLOPE_RE.fullmatch
MAX_SLOPE_TOKEN = 100


def shown_token(text):
    """A token for an error message: as given, or when long the start of
    its stripped text, cut to MAX_SLOPE_TOKEN characters."""
    tok = text.strip()
    return text if len(text) <= MAX_SLOPE_TOKEN else (
        tok[:MAX_SLOPE_TOKEN] + "..." * (len(tok) > MAX_SLOPE_TOKEN))


def parse_int(text, what):
    """Parse an integer token of the input grammar; raises ValueError
    naming ``what`` and the token otherwise."""
    tok = text.strip()
    if len(tok) <= MAX_SLOPE_TOKEN and INT_RE.fullmatch(tok):
        return int(tok)
    raise ValueError(f"invalid {what} {shown_token(text)!r}")


def slope_terms(text):
    """Read 'p', 'p/q' or 'inf' into the slope's lowest terms (num, den).

    Raises ValueError naming the offending token, stripped and cut to
    MAX_SLOPE_TOKEN characters, on anything else.
    """
    tok = text.strip()
    m = len(tok) <= MAX_SLOPE_TOKEN and _match_slope(tok)
    why = ""
    if m:
        num, den = m.groups()
        if num is None:
            return 1, 0
        try:
            return lowest_terms(int(num), int(den or 1))
        except ValueError as exc:   # 0/0
            why = f" ({exc})"
    raise ValueError(f"invalid slope token {shown_token(tok)!r}{why}")


def parse_slope(text):
    """The slope of the token ``text``, read by `slope_terms`."""
    return ExtRational(*slope_terms(text))
