"""Division algebras with involution, and matrix algebras built on them.

Three kinds of division algebra D over the base field F are supported,
each with its canonical involution theta:

* split:      D = F, theta = identity;
* quad d:     D = F(sqrt(-d)), theta = conjugation (requires -d negative
              at some ordering, so that -d is not a square and D is a
              field);
* quat a, b:  D = (-a, -b)_F with i^2 = -a, j^2 = -b, ij = k = -ji, and
              theta = quaternion conjugation (requires the norm form
              <1, a, b, ab> to be positive definite at some ordering, so
              that the reduced norm is anisotropic and D is division).

The full algebra with involution is (M_ell(D), sigma) where
sigma(x) = phi * theta_t(x) * phi^-1 for an invertible matrix phi fixed
by theta_t (conjugate transpose).  Only this symmetric case is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    InternalInvariantViolation,
    Singular,
)
from .field import FieldDesc, FieldElem, orderings

__all__ = ["DivisionAlgebraDesc", "DElem", "MatD", "AlgebraWithInvolution"]

_DIMS = {"split": 1, "quad": 2, "quat": 4}


@dataclass(frozen=True)
class DivisionAlgebraDesc:
    """Descriptor of the division algebra D with its canonical involution."""

    base: FieldDesc
    kind: str  # "split" | "quad" | "quat"
    params: tuple[FieldElem, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _DIMS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(self.params))
        for p in self.params:
            if p.field != self.base:
                raise ValueError("parameter field mismatch")
        if self.kind == "split":
            if self.params:
                raise ValueError("split algebra takes no parameters")
        elif self.kind == "quad":
            if len(self.params) != 1:
                raise ValueError("quad algebra takes one parameter d")
            (d,) = self.params
            # -d must be negative somewhere, else -d could be a square
            if not any(d.sign_at(p) == 1 for p in orderings(self.base)):
                raise ValueError(
                    "quad parameter d must be positive at some ordering"
                )
        else:
            if len(self.params) != 2:
                raise ValueError("quat algebra takes two parameters a, b")
            a, b = self.params
            # norm form <1, a, b, ab> positive definite at some ordering
            if not any(
                a.sign_at(p) == 1 and b.sign_at(p) == 1
                for p in orderings(self.base)
            ):
                raise ValueError(
                    "quat parameters a, b must both be positive at some ordering"
                )

    @property
    def dim(self) -> int:
        """Dimension of D over the base field (1, 2 or 4)."""
        return _DIMS[self.kind]

    def zero(self) -> "DElem":
        z = self.base.zero()
        return DElem(self, (z,) * self.dim)

    def one(self) -> "DElem":
        coords = [self.base.one()] + [self.base.zero()] * (self.dim - 1)
        return DElem(self, tuple(coords))

    def from_field(self, c: FieldElem | int | Fraction) -> "DElem":
        """Embed a base-field element as a scalar of D."""
        if not isinstance(c, FieldElem):
            c = self.base.elem(c)
        if c.field != self.base:
            raise ValueError("field mismatch")
        coords = [c] + [self.base.zero()] * (self.dim - 1)
        return DElem(self, tuple(coords))

    def basis(self) -> tuple["DElem", ...]:
        """The standard F-basis of D (1; 1, s; or 1, i, j, k)."""
        one, zero = self.base.one(), self.base.zero()
        out = []
        for pos in range(self.dim):
            coords = [zero] * self.dim
            coords[pos] = one
            out.append(DElem(self, tuple(coords)))
        return tuple(out)

    def __str__(self) -> str:
        if self.kind == "split":
            return str(self.base)
        if self.kind == "quad":
            return f"{self.base}(sqrt(-({self.params[0]})))"
        a, b = self.params
        return f"(-({a}),-({b}))_{self.base}"


class DElem:
    """Element of D in coordinates over the standard basis.

    A small immutable value type (treat instances as read-only);
    arithmetic returns new elements.
    """

    __slots__ = ("alg", "coords")

    def __init__(self, alg: DivisionAlgebraDesc, coords) -> None:
        coords = tuple(coords)
        if len(coords) != alg.dim:
            raise DimensionMismatch("wrong coordinate count for algebra kind")
        self.alg = alg
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DElem)
            and self.alg == other.alg
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.alg, self.coords))

    def __repr__(self) -> str:
        return f"DElem({self.alg.kind}, {self.coords!r})"

    def _coerce(self, other) -> "DElem":
        if isinstance(other, DElem):
            if other.alg is not self.alg and other.alg != self.alg:
                raise ValueError("algebra mismatch")
            return other
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.alg.from_field(other)
        return NotImplemented

    def __add__(self, other) -> "DElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _unsafe_d(
            self.alg, tuple(x + y for x, y in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self) -> "DElem":
        return _unsafe_d(self.alg, tuple(-x for x in self.coords))

    def __sub__(self, other) -> "DElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _unsafe_d(
            self.alg, tuple(x - y for x, y in zip(self.coords, o.coords))
        )

    def __rsub__(self, other) -> "DElem":
        return (-self) + other

    def __mul__(self, other) -> "DElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        kind = self.alg.kind
        if kind == "split":
            return _unsafe_d(self.alg, (self.coords[0] * o.coords[0],))
        if kind == "quad":
            (d,) = self.alg.params
            x1, y1 = self.coords
            x2, y2 = o.coords
            # (x1 + y1 s)(x2 + y2 s) with s^2 = -d
            return _unsafe_d(
                self.alg, (x1 * x2 - d * (y1 * y2), x1 * y2 + y1 * x2)
            )
        a, b = self.alg.params
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = o.coords
        # i^2 = -a, j^2 = -b, ij = k = -ji, k^2 = -ab
        return _unsafe_d(
            self.alg,
            (
                x0 * y0 - a * (x1 * y1) - b * (x2 * y2) - a * (b * (x3 * y3)),
                x0 * y1 + x1 * y0 + b * (x2 * y3 - x3 * y2),
                x0 * y2 + x2 * y0 - a * (x1 * y3 - x3 * y1),
                x0 * y3 + x3 * y0 + (x1 * y2 - x2 * y1),
            ),
        )

    def __rmul__(self, other) -> "DElem":
        # only scalars reach here; they are central
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self

    def theta(self) -> "DElem":
        """Canonical involution of D (identity / conjugation)."""
        if self.alg.kind == "split":
            return self
        return _unsafe_d(
            self.alg, (self.coords[0],) + tuple(-c for c in self.coords[1:])
        )

    def nrd(self) -> FieldElem:
        """Reduced norm x * theta(x), a base-field element."""
        kind = self.alg.kind
        if kind == "split":
            return self.coords[0] * self.coords[0]
        if kind == "quad":
            (d,) = self.alg.params
            x, y = self.coords
            return x * x + d * (y * y)
        a, b = self.alg.params
        x0, x1, x2, x3 = self.coords
        return x0 * x0 + a * (x1 * x1) + b * (x2 * x2) + a * (b * (x3 * x3))

    def inverse(self) -> "DElem":
        """theta(x) / nrd(x); nrd is anisotropic on valid descriptors."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.nrd()
        if n.is_zero():
            raise InternalInvariantViolation(
                "reduced norm vanished on a nonzero element; "
                "descriptor is not a division algebra"
            )
        ninv = n.inverse()
        return DElem(self.alg, tuple(c * ninv for c in self.theta().coords))

    def __truediv__(self, other) -> "DElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def is_scalar(self) -> bool:
        return all(c.is_zero() for c in self.coords[1:])

    def scalar(self) -> FieldElem:
        """Extract the base-field value of a scalar element."""
        if not self.is_scalar():
            raise ValueError(f"element {self} is not scalar")
        return self.coords[0]

    def __str__(self) -> str:
        names = {1: ("",), 2: ("", "s"), 4: ("", "i", "j", "k")}[self.alg.dim]
        parts = []
        for c, n in zip(self.coords, names):
            if c.is_zero():
                continue
            parts.append(f"{c}{'*' + n if n else ''}" if n else f"{c}")
        return " + ".join(parts) if parts else "0"


def _unsafe_d(alg: DivisionAlgebraDesc, coords: tuple) -> DElem:
    """Internal constructor for arithmetic results; skips validation."""
    e = object.__new__(DElem)
    e.alg = alg
    e.coords = coords
    return e


class MatD:
    """Rectangular matrix over D with exact entries.

    Instances are immutable and hashable; arithmetic returns new matrices.
    """

    __slots__ = ("alg", "entries", "_hash")

    def __init__(
        self, alg: DivisionAlgebraDesc, entries: Sequence[Sequence[DElem]]
    ) -> None:
        rows = tuple(tuple(r) for r in entries)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged matrix")
            for e in r:
                if not isinstance(e, DElem) or (e.alg is not alg and e.alg != alg):
                    raise ValueError("entry algebra mismatch")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatD is immutable")

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, alg: DivisionAlgebraDesc, rows: int, cols: int) -> "MatD":
        z = alg.zero()
        return cls(alg, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, alg: DivisionAlgebraDesc, n: int) -> "MatD":
        z, o = alg.zero(), alg.one()
        return cls(alg, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, alg: DivisionAlgebraDesc, diag: Iterable[DElem]) -> "MatD":
        dd = list(diag)
        z = alg.zero()
        return cls(
            alg,
            [[dd[i] if i == j else z for j in range(len(dd))] for i in range(len(dd))],
        )

    @classmethod
    def scalar(cls, alg: DivisionAlgebraDesc, c, n: int) -> "MatD":
        """c * identity of size n, with c a field element or DElem."""
        e = c if isinstance(c, DElem) else alg.from_field(c)
        return cls.diagonal(alg, [e] * n)

    @classmethod
    def block_diag(cls, blocks: Sequence["MatD"]) -> "MatD":
        if not blocks:
            raise ValueError("need at least one block")
        alg = blocks[0].alg
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[alg.zero()] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.entries[i][j]
            r0 += b.rows
            c0 += b.cols
        return cls(alg, out)

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx: tuple[int, int]) -> DElem:
        i, j = idx
        return self.entries[i][j]

    def submatrix(self, r0: int, c0: int, nrows: int, ncols: int) -> "MatD":
        return MatD(
            self.alg,
            [
                [self.entries[r0 + i][c0 + j] for j in range(ncols)]
                for i in range(nrows)
            ],
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- equality / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatD)
            and self.alg == other.alg
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.alg, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MatD") -> "MatD":
        if not isinstance(other, MatD):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return MatD(
            self.alg,
            [
                [x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "MatD") -> "MatD":
        if not isinstance(other, MatD):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MatD":
        return MatD(self.alg, [[-x for x in r] for r in self.entries])

    def __mul__(self, other: "MatD") -> "MatD":
        if not isinstance(other, MatD):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        zero = self.alg.zero()
        ocols = other.cols
        rows_rhs = other.entries
        out = []
        for lrow in self.entries:
            # skip structural zeros of this row once, not once per column
            nz = [(k, x) for k, x in enumerate(lrow) if x]
            row = []
            for j in range(ocols):
                acc = zero
                for k, x in nz:
                    y = rows_rhs[k][j]
                    if y:
                        acc = acc + x * y
                row.append(acc)
            out.append(row)
        return MatD(self.alg, out)

    def scale_field(self, c: FieldElem | int | Fraction) -> "MatD":
        """Multiply every entry by a central base-field scalar."""
        e = self.alg.from_field(c)
        return MatD(self.alg, [[e * x for x in r] for r in self.entries])

    def theta_t(self) -> "MatD":
        """Conjugate transpose: entry (i, j) becomes theta of entry (j, i)."""
        return MatD(
            self.alg,
            [
                [self.entries[j][i].theta() for j in range(self.rows)]
                for i in range(self.cols)
            ],
        )

    def is_theta_hermitian(self) -> bool:
        if not self.is_square():
            return False
        for i in range(self.rows):
            for j in range(i, self.rows):
                if self.entries[i][j] != self.entries[j][i].theta():
                    return False
        return True

    def inverse(self) -> "MatD":
        """Inverse via Gauss-Jordan elimination over the division algebra."""
        if not self.is_square():
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        work = [list(r) for r in self.entries]
        out = [list(r) for r in MatD.identity(self.alg, n).entries]
        for col in range(n):
            piv = next(
                (r for r in range(col, n) if not work[r][col].is_zero()), None
            )
            if piv is None:
                raise Singular("matrix is not invertible")
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                out[col], out[piv] = out[piv], out[col]
            inv = work[col][col].inverse()
            work[col] = [inv * x for x in work[col]]
            out[col] = [inv * x for x in out[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                out[r] = [x - f * y for x, y in zip(out[r], out[col])]
        return MatD(self.alg, out)

    def trace(self) -> DElem:
        if not self.is_square():
            raise DimensionMismatch("trace of a non-square matrix")
        acc = self.alg.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        ) + "]"

    __repr__ = __str__


def kron_identity_left(k: int, m: MatD) -> MatD:
    """Block-diagonal matrix with k copies of m (identity tensor m)."""
    return MatD.block_diag([m] * k) if k else MatD.zeros(m.alg, 0, 0)


@dataclass(frozen=True)
class AlgebraWithInvolution:
    """(M_ell(D), sigma) with sigma(x) = phi * theta_t(x) * phi^-1.

    phi must be an invertible ell x ell matrix fixed by theta_t; this keeps
    sigma an involution whose symmetric elements pair with the canonical
    involution of D.
    """

    ell: int
    div: DivisionAlgebraDesc
    phi: MatD

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.phi.alg != self.div:
            raise ValueError("phi entries live in the wrong algebra")
        if self.phi.rows != self.ell or self.phi.cols != self.ell:
            raise DimensionMismatch("phi must be ell x ell")
        if not self.phi.is_theta_hermitian():
            raise ValueError("phi must be fixed by the conjugate transpose")
        self.phi_inv  # fail fast on singular phi; the inverse stays cached

    @cached_property
    def phi_inv(self) -> MatD:
        return self.phi.inverse()

    @property
    def field(self) -> FieldDesc:
        return self.div.base

    @cached_property
    def has_standard_involution(self) -> bool:
        """True when phi is the identity (sigma is theta_t itself)."""
        return self.phi == MatD.identity(self.div, self.ell)

    def identity(self) -> MatD:
        return MatD.identity(self.div, self.ell)

    def zero(self) -> MatD:
        return MatD.zeros(self.div, self.ell, self.ell)

    def sigma(self, x: MatD) -> MatD:
        if x.rows != self.ell or x.cols != self.ell:
            raise DimensionMismatch("element has wrong size for the algebra")
        return self.phi * x.theta_t() * self.phi_inv

    def is_symmetric(self, x: MatD) -> bool:
        """True when sigma(x) == x.

        When phi is the identity, sigma is theta_t and the test is
        theta_t(x) == x, with no matrix products.
        """
        if self.has_standard_involution:
            if x.cols != self.ell:
                raise DimensionMismatch("matrix product shape mismatch")
            return x.theta_t() == x
        # sigma(x) == x  iff  phi * theta_t(x) == x * phi
        return self.phi * x.theta_t() == x * self.phi

    def __str__(self) -> str:
        inv = "theta_t" if self.has_standard_involution else f"ad({self.phi})"
        return f"(M_{self.ell}({self.div}), {inv})"
