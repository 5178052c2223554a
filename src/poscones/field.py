"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

An element a + b*sqrt(d) is stored as three Python ints (x, y, den) with
value (x + y*sqrt(d))/den, den > 0 and gcd(x, y, den) == 1.  That form is
canonical, so equality is a compare of the three ints, and each operation
does its integer work and then divides out one gcd.  The rational
coordinates a = x/den and b = y/den are read-only Fraction properties.
Q has a single ordering; Q(sqrt(d)) has exactly two, given by the two
real embeddings sqrt(d) -> +sqrt(d) and sqrt(d) -> -sqrt(d).  Orderings
are addressed by the integers 0 and 1 in that order.

Signs at an ordering are decided by exact integer comparison (x^2 against
d*y^2), never by floating point, so every result is certified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, ParseError

__all__ = [
    "FieldDesc",
    "FieldElem",
    "orderings",
    "sign_at",
    "is_totally_positive",
    "parse_elem",
    "format_elem",
]


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


# Square-freeness is checked by trial division, so d is capped to keep it fast.
MAX_D = 10**12


@dataclass(frozen=True)
class FieldDesc:
    """Base field descriptor: Q when d is None, otherwise Q(sqrt(d)).

    d must be a square-free integer >= 2 so that sqrt(d) is irrational and
    the two real embeddings are distinct; it is at most MAX_D = 10**12.
    """

    d: int | None = None

    def __post_init__(self) -> None:
        if self.d is not None:
            if not isinstance(self.d, int) or self.d < 2:
                raise ValueError("d must be an integer >= 2")
            if self.d > MAX_D:
                raise ValueError(f"d must be at most {MAX_D} (10**12), got {self.d}")
            if not _is_squarefree(self.d):
                raise ValueError("d must be square-free")

    @property
    def is_quadratic(self) -> bool:
        return self.d is not None

    def zero(self) -> "FieldElem":
        return _elem(self, 0, 0, 1)

    def one(self) -> "FieldElem":
        return _elem(self, 1, 0, 1)

    def elem(self, a, b=0) -> "FieldElem":
        """Build a + b*sqrt(d); b must be 0 over Q."""
        return FieldElem(self, Fraction(a), Fraction(b))

    def sqrt_gen(self) -> "FieldElem":
        """The generator sqrt(d) itself."""
        if self.d is None:
            raise ValueError("Q has no quadratic generator")
        return _elem(self, 0, 1, 1)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


def orderings(field: FieldDesc) -> tuple[int, ...]:
    """All orderings of the field, as indices 0..1."""
    return (0,) if field.d is None else (0, 1)


def _check_ordering(field: FieldDesc, p: int) -> None:
    if p not in orderings(field):
        raise ValueError(f"ordering {p!r} is not valid for {field}")


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


class FieldElem:
    """Element a + b*sqrt(d) of the base field, with exact rational a, b.

    Stored as ints (x, y, den) with a = x/den and b = y/den, where den > 0
    and gcd(x, y, den) == 1 (y == 0 over Q).  A small immutable value type
    (treat instances as read-only, like Fraction itself); arithmetic
    returns new elements and stays inside one field.
    """

    __slots__ = ("field", "x", "y", "den")

    def __init__(self, field: FieldDesc, a, b=0) -> None:
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if field.d is None and b:
            raise ValueError("rational field element cannot have a sqrt part")
        # over the lcm of two reduced denominators no prime divides x, y, den
        ad, bd = a.denominator, b.denominator
        den = ad // gcd(ad, bd) * bd
        self.field = field
        self.x = a.numerator * (den // ad)
        self.y = b.numerator * (den // bd)
        self.den = den

    @property
    def a(self) -> Fraction:
        """Rational coordinate of 1."""
        return Fraction(self.x, self.den)

    @property
    def b(self) -> Fraction:
        """Rational coordinate of sqrt(d)."""
        return Fraction(self.y, self.den)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.x and not self.y

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def is_rational(self) -> bool:
        return not self.y

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.x == other.x
            and self.y == other.y
            and self.den == other.den
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.field, self.x, self.y, self.den))

    def __repr__(self) -> str:
        return f"FieldElem({self.field}, {self.a!r}, {self.b!r})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return _elem(self.field, other, 0, 1)
        if isinstance(other, Fraction):
            return _elem(self.field, other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (o.x or o.y):
            return self
        if not (self.x or self.y):
            return o
        return _elem(
            self.field,
            self.x * o.den + o.x * self.den,
            self.y * o.den + o.y * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return _elem(self.field, -self.x, -self.y, self.den)

    def __sub__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _elem(
            self.field,
            self.x * o.den - o.x * self.den,
            self.y * o.den - o.y * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        sx, sy, ox, oy = self.x, self.y, o.x, o.y
        if not (sx or sy) or not (ox or oy):
            return _elem(self.field, 0, 0, 1)
        # rational factors need no cross terms
        if not sy:
            return _elem(self.field, sx * ox, sx * oy, self.den * o.den)
        if not oy:
            return _elem(self.field, sx * ox, sy * ox, self.den * o.den)
        return _elem(
            self.field,
            sx * ox + self.field.d * sy * oy,
            sx * oy + sy * ox,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElem":
        """Image under the nontrivial automorphism sqrt(d) -> -sqrt(d)."""
        return _elem(self.field, self.x, -self.y, self.den)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 down to Q (a^2 over Q itself)."""
        # y == 0 over Q, where d is None
        n = self.x * self.x - (self.field.d or 0) * self.y * self.y
        return Fraction(n, self.den * self.den)

    def inverse(self) -> "FieldElem":
        if not (self.x or self.y):
            raise DivisionByZero("inverse of zero field element")
        # 1/((x + y*sqrt(d))/den) = den*(x - y*sqrt(d))/(x^2 - d*y^2); the
        # norm x^2 - d*y^2 is nonzero for a nonzero element, d being no square
        n = self.x * self.x - (self.field.d or 0) * self.y * self.y
        den = self.den if n > 0 else -self.den
        return _elem(self.field, den * self.x, -den * self.y, abs(n))

    def __truediv__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "FieldElem":
        return self.inverse() * other

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- signs --------------------------------------------------------------

    def sign_at(self, p: int) -> int:
        """Sign (-1, 0, +1) of the element at ordering p, decided exactly."""
        _check_ordering(self.field, p)
        # den > 0, so the sign is that of x + y*sqrt(d) at p
        x = self.x
        y = self.y if p == 0 else -self.y
        if not y:
            return _sgn(x)
        if not x:
            return _sgn(y)
        sx, sy = _sgn(x), _sgn(y)
        if sx == sy:
            return sx
        # opposite signs: |x| against |y|*sqrt(d), compared via squares
        lhs = x * x
        rhs = self.field.d * y * y
        if lhs == rhs:
            # would make d a rational square, excluded by FieldDesc
            raise ValueError("field descriptor is not a real quadratic field")
        return sx if lhs > rhs else sy

    def __str__(self) -> str:
        return format_elem(self)


def _elem(field: FieldDesc, x: int, y: int, den: int) -> FieldElem:
    """Internal constructor for arithmetic results, given den > 0.

    Divides out gcd(x, y, den) so the triple is canonical; arithmetic keeps
    y == 0 over Q, so no other validation is needed.
    """
    g = gcd(x, y, den)
    if g != 1:
        x //= g
        y //= g
        den //= g
    e = object.__new__(FieldElem)
    e.field = field
    e.x = x
    e.y = y
    e.den = den
    return e


def sign_at(x: FieldElem, p: int) -> int:
    return x.sign_at(p)


def is_totally_positive(x: FieldElem) -> bool:
    """True when x is strictly positive at every ordering of its field."""
    return all(x.sign_at(p) == 1 for p in orderings(x.field))


# -- textual form -----------------------------------------------------------
#
# Grammar (no whitespace): RAT | [RAT] SIGN [RAT "*"] "sqrt(" INT ")"
# where RAT is p or p/q with optional leading sign.  Emission is canonical
# and round-trips bit-exactly through parse_elem.
# The leading RAT may not be followed by a digit, "/" or "*", so it never
# ends inside the coefficient of a pure sqrt term such as 23*sqrt(2).

_RAT = r"[+-]?\d+(?:/\d+)?"
_ELEM_RE = re.compile(
    rf"^(?P<a>{_RAT}(?![\d/*]))?"
    rf"(?:(?P<sign>[+-])?(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<d>\d+)\))?$"
)


def parse_elem(field: FieldDesc, text: str) -> FieldElem:
    """Parse "p/q" or "p/q+r/s*sqrt(d)" into a field element."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty field element")
    m = _ELEM_RE.match(s)
    if m is None:
        raise ParseError(f"cannot parse field element {text!r}")
    a_txt, sign_txt, b_txt, d_txt = m.group("a", "sign", "b", "d")
    if a_txt is None and d_txt is None:
        raise ParseError(f"cannot parse field element {text!r}")
    a = Fraction(a_txt) if a_txt is not None else Fraction(0)
    if d_txt is None:
        b = Fraction(0)
    else:
        if field.d is None:
            raise ParseError("sqrt term not allowed over Q")
        if int(d_txt) != field.d:
            raise ParseError(f"sqrt({d_txt}) does not match field {field}")
        if a_txt is not None and sign_txt is None:
            raise ParseError(f"missing sign before sqrt term in {text!r}")
        b = Fraction(b_txt) if b_txt is not None else Fraction(1)
        if sign_txt == "-":
            b = -b
    return FieldElem(field, a, b)


def format_elem(x: FieldElem) -> str:
    """Canonical textual form; parse_elem(field, format_elem(x)) == x."""
    if not x.y:
        return str(x.a)
    # each read of .a or .b builds a Fraction, so read them once
    a, b = x.a, x.b
    mag = abs(b)
    coef = "" if mag == 1 else f"{mag}*"
    tail = f"{coef}sqrt({x.field.d})"
    if a == 0:
        return tail if b > 0 else f"-{tail}"
    link = "+" if b > 0 else "-"
    return f"{a}{link}{tail}"
