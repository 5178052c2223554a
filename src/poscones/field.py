"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

An element is stored as a + b*sqrt(d) with rational coordinates.  Q has a
single ordering; Q(sqrt(d)) has exactly two, given by the two real
embeddings sqrt(d) -> +sqrt(d) and sqrt(d) -> -sqrt(d).  Orderings are
addressed by the integers 0 and 1 in that order.

Signs at an ordering are decided by exact integer comparison (a^2 against
d*b^2), never by floating point, so every result is certified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

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
        return FieldElem(self, Fraction(0))

    def one(self) -> "FieldElem":
        return FieldElem(self, Fraction(1))

    def elem(self, a, b=0) -> "FieldElem":
        """Build a + b*sqrt(d); b must be 0 over Q."""
        return FieldElem(self, Fraction(a), Fraction(b))

    def sqrt_gen(self) -> "FieldElem":
        """The generator sqrt(d) itself."""
        if self.d is None:
            raise ValueError("Q has no quadratic generator")
        return FieldElem(self, Fraction(0), Fraction(1))

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


def orderings(field: FieldDesc) -> tuple[int, ...]:
    """All orderings of the field, as indices 0..1."""
    return (0,) if field.d is None else (0, 1)


def _check_ordering(field: FieldDesc, p: int) -> None:
    if p not in orderings(field):
        raise ValueError(f"ordering {p!r} is not valid for {field}")


def _sgn(q: Fraction) -> int:
    return (q > 0) - (q < 0)


_FR0 = Fraction(0)


class FieldElem:
    """Element a + b*sqrt(d) of the base field, with exact rational a, b.

    A small immutable value type (treat instances as read-only, like
    Fraction itself); arithmetic returns new elements and stays inside
    one field.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field: FieldDesc, a, b=_FR0) -> None:
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if field.d is None and b:
            raise ValueError("rational field element cannot have a sqrt part")
        self.field = field
        self.a = a
        self.b = b

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def is_rational(self) -> bool:
        return not self.b

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.b))

    def __repr__(self) -> str:
        return f"FieldElem({self.field}, {self.a!r}, {self.b!r})"

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return _unsafe(self.field, Fraction(other), _FR0)
        return NotImplemented

    def __add__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (o.a or o.b):
            return self
        if not (self.a or self.b):
            return o
        return _unsafe(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return _unsafe(self.field, -self.a, -self.b)

    def __sub__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _unsafe(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not (self.a or self.b) or not (o.a or o.b):
            return _unsafe(self.field, _FR0, _FR0)
        d = self.field.d
        if d is None:
            return _unsafe(self.field, self.a * o.a, _FR0)
        # rational factors need no cross terms
        if not self.b:
            return _unsafe(self.field, self.a * o.a, self.a * o.b)
        if not o.b:
            return _unsafe(self.field, self.a * o.a, self.b * o.a)
        return _unsafe(
            self.field,
            self.a * o.a + d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElem":
        """Image under the nontrivial automorphism sqrt(d) -> -sqrt(d)."""
        return _unsafe(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - d*b^2 down to Q (a^2 over Q itself)."""
        if self.field.d is None:
            return self.a * self.a
        return self.a * self.a - self.field.d * self.b * self.b

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        n = self.norm()
        # n == 0 with self != 0 would force d to be a rational square
        return _unsafe(self.field, self.a / n, -self.b / n)

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
        a = self.a
        b = self.b if p == 0 else -self.b
        if b == 0:
            return _sgn(a)
        if a == 0:
            return _sgn(b)
        sa, sb = _sgn(a), _sgn(b)
        if sa == sb:
            return sa
        # opposite signs: |a| against |b|*sqrt(d), compared via squares
        lhs = a * a
        rhs = self.field.d * b * b
        if lhs == rhs:
            # would make d a rational square, excluded by FieldDesc
            raise ValueError("field descriptor is not a real quadratic field")
        return sa if lhs > rhs else sb

    def __str__(self) -> str:
        return format_elem(self)


def _unsafe(field: FieldDesc, a: Fraction, b: Fraction) -> FieldElem:
    """Internal constructor for arithmetic results; skips validation.

    Callers guarantee a, b are Fractions and b == 0 over Q (arithmetic
    preserves both).
    """
    e = object.__new__(FieldElem)
    e.field = field
    e.a = a
    e.b = b
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
    if x.b == 0:
        return str(x.a)
    d = x.field.d
    mag = -x.b if x.b < 0 else x.b
    coef = "" if mag == 1 else f"{mag}*"
    tail = f"{coef}sqrt({d})"
    if x.a == 0:
        return tail if x.b > 0 else f"-{tail}"
    link = "+" if x.b > 0 else "-"
    return f"{x.a}{link}{tail}"
