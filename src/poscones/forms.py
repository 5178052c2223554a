"""Hermitian forms over (M_ell(D), sigma) and their diagonalization.

A form of rank k is stored through its flattened Gram matrix: the k x k
grid of ell x ell blocks over D, assembled into one (k*ell) x (k*ell)
matrix.  Block (j, i) must equal sigma applied to block (i, j).

Diagonalization works by symmetric congruence pivoting over the division
algebra: theta_t(G) * H * G = diag(entries) with G invertible, computed
in exact arithmetic by a hermitian rank-one update of the trailing block
after each pivot.  The elimination also tracks L = G^-1, and the result
is verified in full through it: G * L == I, then
theta_t(L) * diag(entries) * L == H, of which only one triangle is
computed because that product is hermitian.  That check tests every
entry of H, so H is not scanned for hermitianity before the elimination.
Nonzero diagonal entries always lie in the symmetric elements of D, which
is the base field, so they are returned as field elements; zero entries
are moved to the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, Sequence

from .algebra import AlgebraWithInvolution, DElem, MatD
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotHermitian,
    NotSymmetric,
)
from .field import FieldElem

__all__ = [
    "QuadraticFormF",
    "HermitianForm",
    "DiagonalizationResult",
    "diagonalize",
    "diag_form",
    "unit_form",
    "direct_sum",
    "times",
    "tensor",
    "weakly_represents",
    "WeakRepResult",
]

@dataclass(frozen=True)
class QuadraticFormF:
    """Diagonal quadratic form <u_1, ..., u_m> over the base field."""

    entries: tuple[FieldElem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def sign_at(self, p: int) -> int:
        return sum(e.sign_at(p) for e in self.entries)

    def is_positive_semidefinite_at(self, p: int) -> bool:
        return all(e.sign_at(p) >= 0 for e in self.entries)

    def __str__(self) -> str:
        return "<" + ", ".join(str(e) for e in self.entries) + ">"


class HermitianForm:
    """Hermitian form over an algebra with involution, by Gram matrix."""

    __slots__ = ("alg", "rank", "gram", "_reduced", "_diagonal")

    def __init__(
        self,
        alg: AlgebraWithInvolution,
        rank: int,
        gram: MatD,
        _checked: bool = False,
    ) -> None:
        n = rank * alg.ell
        if gram.alg != alg.div:
            raise ValueError("gram entries live in the wrong algebra")
        if gram.rows != n or gram.cols != n:
            raise DimensionMismatch("gram must be (rank*ell) x (rank*ell)")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_reduced", None)
        object.__setattr__(self, "_diagonal", None)
        if not _checked and not self.reduced.is_theta_hermitian():
            raise NotHermitian("gram is not sigma-hermitian")

    def __setattr__(self, name, value):
        raise AttributeError("HermitianForm is immutable")

    @property
    def reduced(self) -> MatD:
        """Gram of the reduction to (D, theta), computed at most once; it is
        theta_t-hermitian exactly when the form is sigma-hermitian."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", self.alg.reduce(self.gram))
        return self._reduced

    @property
    def diagonal(self) -> DiagonalizationResult:
        """Verified diagonalization of the reduction, computed at most once;
        every signature, cone and maximality answer about h reads it."""
        if self._diagonal is None:
            object.__setattr__(self, "_diagonal", diagonalize(self.reduced))
        return self._diagonal

    def block(self, i: int, j: int) -> MatD:
        ell = self.alg.ell
        return self.gram.submatrix(i * ell, j * ell, ell, ell)

    def evaluate(self, x: MatD, y: MatD) -> MatD:
        """h(x, y) = sum sigma(x_i) B_ij y_j for columns x, y in A^rank.

        x and y are (rank*ell) x ell matrices over D (stacked algebra
        elements); the value is an ell x ell matrix, i.e. an element of A.
        """
        n = self.rank * self.alg.ell
        if x.rows != n or x.cols != self.alg.ell:
            raise DimensionMismatch("vector has wrong shape")
        if y.rows != n or y.cols != self.alg.ell:
            raise DimensionMismatch("vector has wrong shape")
        return self.alg.phi * (x.theta_t() * self.reduced * y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermitianForm)
            and self.alg == other.alg
            and self.rank == other.rank
            and self.gram == other.gram
        )

    def __hash__(self) -> int:
        return hash((self.alg, self.rank, self.gram))

    def __str__(self) -> str:
        return f"herm(rank {self.rank} over {self.alg})"

    __repr__ = __str__


# -- diagonalization ---------------------------------------------------------


@dataclass(frozen=True)
class DiagonalizationResult:
    """G and entries with theta_t(G) * H * G = diag(entries) exactly, and
    the inverse L = G^-1 through which _verify_diagonalization proves it."""

    witness: MatD
    entries: tuple[FieldElem, ...]
    inverse: MatD | None = None

    @property
    def rank(self) -> int:
        return sum(1 for e in self.entries if not e.is_zero())

    def in_cone_at(self, p: int, eps: int = 1) -> bool:
        """True when every nonzero entry has sign eps at ordering p."""
        return all(e.is_zero() or e.sign_at(p) == eps for e in self.entries)


def diagonalize(h: MatD, strategy: str = "first") -> DiagonalizationResult:
    """Diagonalize a theta-hermitian matrix over D by congruence.

    Returns G invertible with theta_t(G) * H * G diagonal; nonzero entries
    are base-field elements and zero entries trail.  strategy selects the
    pivot search order ("first" or "last") and never changes rank or, at
    any ordering where signatures are defined, the entry sign counts.

    A pivot a = w_pp updates the upper triangle of the trailing block by
    w_rs += theta(x_r) * w_ps, x_r = -a^-1 * w_pr, mirrored below, and G
    gains G[:, p] * x_r in column r: about n^3/3 products of D in all.
    The inverse L = G^-1 follows each step on its rows (row p loses
    sum x_r * row r), where rows not yet pivoted are permutation rows
    unless a manufactured pivot touched them, so tracking L costs almost
    no products.  The result carries L, and the identity is checked
    through it in about n^3/3 more products.

    The mirroring assumes a hermitian input, which is not scanned for up
    front: the check compares every entry of H, so anything else fails
    it, and only on that failure is H tested, to raise NotHermitian
    rather than InternalInvariantViolation.  A non-square H is refused
    at once, as the check would compare only its leading square.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    if not h.is_square():
        raise NotHermitian("input matrix is not square")
    try:
        result = _eliminate(h, strategy == "last")
        _verify_diagonalization(h, result)
    except InternalInvariantViolation:
        if not h.is_theta_hermitian():
            raise NotHermitian("input matrix is not theta-hermitian") from None
        raise
    return result


def _eliminate(h: MatD, last: bool) -> DiagonalizationResult:
    """The elimination of diagonalize, unverified."""
    alg = h.alg
    n = h.rows
    work = [list(r) for r in h.entries]
    g = [list(r) for r in MatD.identity(alg, n).entries]
    one = alg.one()
    inv = [{r: one} for r in range(n)]  # rows of L = G^-1 by their support

    def swap(i: int, j: int) -> None:
        for r in range(n):
            work[r][i], work[r][j] = work[r][j], work[r][i]
            g[r][i], g[r][j] = g[r][j], g[r][i]
        work[i], work[j] = work[j], work[i]
        inv[i], inv[j] = inv[j], inv[i]

    def sub_rows(k: int, pairs) -> None:
        # row k of L -= x * row r for each (r, x); a factor one is not multiplied
        lk = inv[k]
        for r, x in pairs:
            for c, v in inv[r].items():
                t = x if v is one else x * v
                lk[c] = lk[c] - t if c in lk else -t

    # step p works on the hermitian block from p on and leaves row p stale
    for p in range(n):
        idx = range(p, n) if not last else range(n - 1, p - 1, -1)
        piv = next((i for i in idx if not work[i][i].is_zero()), None)
        if piv is None:
            # all remaining diagonal entries vanish; manufacture a pivot
            # from a nonzero off-diagonal entry b via col_i += col_j*theta(b)
            # and row_i += b*row_j, which lands 2*nrd(b) != 0 on the diagonal
            offs = [
                (i, j)
                for i in range(p, n)
                for j in range(i + 1, n)
                if not work[i][j].is_zero()
            ]
            if not offs:
                break  # remaining block is zero
            i, j = offs[-1] if last else offs[0]
            wi, wj, x = work[i], work[j], work[i][j].theta()
            d = wi[j] * x + x.theta() * wj[i]  # as w_ii = w_jj = 0
            if d.is_zero():
                raise InternalInvariantViolation("manufactured pivot vanished")
            for r in range(p, n):
                if r != i and work[r][j]:
                    work[r][i] = work[r][i] + work[r][j] * x
                    wi[r] = work[r][i].theta()
            wi[i] = d
            for row in g:
                if row[j]:
                    row[i] = row[i] + row[j] * x
            sub_rows(j, [(i, x)])
            piv = i
        if piv != p:
            swap(piv, p)
        # col_r += col_p * x_r and row_r += theta(x_r) * row_p for r > p
        wp = work[p]
        a_inv = wp[p].inverse()
        support = [r for r in range(p + 1, n) if wp[r]]
        xs = [-(a_inv * wp[r]) for r in support]
        for k, r in enumerate(support):
            wr, xt = work[r], xs[k].theta()
            wr[r] = wr[r] + xt * wp[r]
            for s in support[k + 1 :]:
                wr[s] = wr[s] + xt * wp[s]
                work[s][r] = wr[s].theta()
        for row in g:
            if row[p]:
                for r, x in zip(support, xs):
                    row[r] = row[r] + row[p] * x
        sub_rows(p, zip(support, xs))

    # move zero diagonal entries to the end by a symmetric permutation
    order = [i for i in range(n) if not work[i][i].is_zero()] + [
        i for i in range(n) if work[i][i].is_zero()
    ]
    entries = []
    for i in order:
        e = work[i][i]
        if not e.is_scalar():
            raise InternalInvariantViolation("non-scalar diagonal entry")
        entries.append(e.scalar())
    witness = MatD(alg, [[g[r][c] for c in order] for r in range(n)])
    zero = alg.zero()
    inverse = MatD(alg, [[inv[r].get(c, zero) for c in range(n)] for r in order])

    return DiagonalizationResult(witness, tuple(entries), inverse)


def _verify_diagonalization(h: MatD, res: DiagonalizationResult) -> None:
    """Prove theta_t(G) * H * G == diag(entries) with G invertible, via L.

    First G * L == I, which makes G invertible with L = G^-1 (a one-sided
    inverse of a square matrix over a division ring is two-sided).  Then
    theta_t(L) * diag(entries) * L == H, so that theta_t(G) * H * G is
    theta_t(L G) * diag(entries) * (L G) = diag(entries).  The second
    product is hermitian by algebra, as the entries are central and
    symmetric: only its entries with i <= j are computed, each compared
    with H_ij and its theta with H_ji, so every entry of H is tested.
    """
    g, inv, d = res.witness, res.inverse, res.entries
    if inv is None:
        raise InternalInvariantViolation("diagonalization carries no inverse")
    alg, n = h.alg, h.rows
    if (g.rows, g.cols, inv.rows, inv.cols, len(d)) != (n,) * 5:
        raise InternalInvariantViolation("diagonalization has the wrong shape")
    if g * inv != MatD.identity(alg, n):
        raise InternalInvariantViolation("diagonalization inverse failed")
    zero = alg.zero()
    s = [[zero] * n for _ in range(n)]
    for e, row in zip(d, inv.entries):
        if e.is_zero():
            continue
        nz = [(c, x) for c, x in enumerate(row) if x]
        scaled = [(c, x.scale(e)) for c, x in nz]  # row k of diag(entries) * L
        for a, (i, x) in enumerate(nz):
            xt, si = x.theta(), s[i]
            for j, y in scaled[a:]:
                si[j] = si[j] + xt * y
    hr = h.entries
    for i in range(n):
        for j in range(i, n):
            if s[i][j] != hr[i][j] or (j > i and s[i][j].theta() != hr[j][i]):
                raise InternalInvariantViolation("diagonalization identity failed")


# -- constructors ------------------------------------------------------------


def diag_form(alg: AlgebraWithInvolution, elems: Sequence[MatD]) -> HermitianForm:
    """<a_1, ..., a_k> for sigma-symmetric coefficients a_i (zero allowed)."""
    for a in elems:
        if a.rows != alg.ell or a.cols != alg.ell:
            raise DimensionMismatch("coefficient has wrong size")
    gram = MatD.block_diag(list(elems)) if elems else MatD.zeros(alg.div, 0, 0)
    h = HermitianForm(alg, len(elems), gram, _checked=True)
    if not h.reduced.is_theta_hermitian():
        raise NotSymmetric("diagonal coefficient is not sigma-symmetric")
    return h


# elements whose <u> (and so its verified diagonal) is kept for reuse
RANK_ONE_CACHE = 64


@lru_cache(maxsize=RANK_ONE_CACHE)
def rank_one(alg: AlgebraWithInvolution, a: MatD) -> HermitianForm:
    """The form <a> of rank one, one object per (alg, a) while it is among
    the RANK_ONE_CACHE most recently used: every cone, maximality, Harrison
    and weak-representation question on a reads the one diagonal of <a>.
    A refused a (NotSymmetric) is not cached, so it is refused every time."""
    return diag_form(alg, [a])


def unit_form(alg: AlgebraWithInvolution) -> HermitianForm:
    """<1>, the rank-one form with Gram the identity of A."""
    return rank_one(alg, alg.identity())


def direct_sum(h1: HermitianForm, h2: HermitianForm) -> HermitianForm:
    if h1.alg != h2.alg:
        raise ValueError("forms live over different algebras")
    if h1.rank == 0:
        return h2
    if h2.rank == 0:
        return h1
    gram = MatD.block_diag([h1.gram, h2.gram])
    return HermitianForm(h1.alg, h1.rank + h2.rank, gram, _checked=True)


def times(m: int, h: HermitianForm) -> HermitianForm:
    """Orthogonal sum of m copies of h."""
    if m < 0:
        raise ValueError("copy count must be >= 0")
    if m == 0 or h.rank == 0:
        return diag_form(h.alg, [])
    gram = MatD.block_diag([h.gram] * m)
    return HermitianForm(h.alg, m * h.rank, gram, _checked=True)


def tensor(q: QuadraticFormF, h: HermitianForm) -> HermitianForm:
    """q tensor h: the sum over i of h scaled by the central u_i."""
    for u in q.entries:
        if u.field != h.alg.field:
            raise ValueError("field mismatch between form factors")
    if not q.entries or h.rank == 0:
        return diag_form(h.alg, [])
    gram = MatD.block_diag([h.gram.scale_field(u) for u in q.entries])
    return HermitianForm(h.alg, q.dim * h.rank, gram, _checked=True)


# -- weak representation by a formula ----------------------------------------


@dataclass(frozen=True)
class WeakRepResult:
    """Whether u is a value of m copies of h, with the witness x if it is."""

    status: str  # "yes" | "unknown"
    copies: int = 0
    witness: MatD | None = None


def _squares(q: Fraction) -> list[Fraction]:
    """Rational squares summing to q > 0, by greedy descent on q = n / den^2.

    Each step n -> n - isqrt(n)^2 leaves at most 2 * sqrt(n): O(log log n) steps.
    """
    den = q.denominator
    n = q.numerator * den
    out = []
    while n:
        r = isqrt(n)
        out.append(Fraction(r, den))
        n -= r * r
    return out


def _combinations(e: FieldElem, gens: list) -> Iterator[list]:
    """e as a positive rational combination of one or two generators.

    Yields lists of (slot, coordinates, squares summing to the coefficient).
    In the coordinates (1, sqrt(d)) of the base field, two generators
    suffice whenever any nonnegative combination exists (Caratheodory).
    """
    for j, ids, g in gens:
        r = e / g
        if r.is_rational() and r.a > 0:
            yield [(j, ids, _squares(r.a))]
    for k, (j1, ids1, g1) in enumerate(gens):
        for j2, ids2, g2 in gens[k + 1 :]:
            det = g1.a * g2.b - g2.a * g1.b
            if det:
                l1 = (e.a * g2.b - g2.a * e.b) / det
                l2 = (g1.a * e.b - e.a * g1.b) / det
                if l1 > 0 and l2 > 0:
                    yield [(j1, ids1, _squares(l1)), (j2, ids2, _squares(l2))]


def weakly_represents(h: HermitianForm, u: MatD) -> WeakRepResult:
    """Build x with (m x h)(x, x) == u from a formula, with no search.

    The reductions of h and <u> to (D, theta) diagonalize to <d_j> and
    <e_c>.  With <c_i> = <theta(beta) beta> over the standard basis of D
    (the norm form), an element of D with coordinates q_i in slot j of a
    copy of h adds d_j * sum_i c_i q_i^2.  So each nonzero e_c is written
    as a nonnegative rational combination of at most two generators
    d_j * c_i: a single one whose ratio is a rational square if there is
    one, else any; among those, the one that needs the fewest copies.
    Coordinates with equal c_i make one generator.  Each coefficient is
    split into rational squares, and each square fills one coordinate of
    one copy of slot j: the r-th of the generator's k coordinates, taken
    cyclically, in copy r // k, so s squares take ceil(s / k) copies.

    The answer is "yes", with a re-checked witness, exactly when every
    nonzero e_c is such a combination; otherwise it is "unknown".  u must
    be sigma-symmetric; <u> comes from rank_one, so its diagonal is shared
    with every other question on u.
    """
    alg, ell = h.alg, h.alg.ell
    target = rank_one(alg, u)  # validates u before the zero shortcut
    if u.is_zero():
        return WeakRepResult("yes", 1, MatD.zeros(alg.div, h.rank * ell, ell))

    res, tres = h.diagonal, target.diagonal
    coords_of = {}  # norm-form value -> the coordinates that have it
    for i, c in enumerate(alg.div.norm_form()):
        coords_of.setdefault(c, []).append(i)
    gens = [(j, ids, d * c) for c, ids in coords_of.items()
            for j, d in enumerate(res.entries) if not d.is_zero()]
    used = [0] * len(res.entries)  # copies of each slot filled so far
    placed = []  # (copy, slot, column, coordinate, square root)
    for col, e in enumerate(tres.entries):
        if e.is_zero():
            continue
        split = min(_combinations(e, gens), default=None, key=lambda s: (
            len(s) > 1 or len(s[0][2]) > 1,
            max(used[j] + -(-len(q) // len(ids)) for j, ids, q in s),
        ))
        if split is None:
            return WeakRepResult("unknown")
        base = list(used)
        for j, ids, sq in split:
            k = len(ids)
            placed += [(base[j] + r // k, j, col, ids[r % k], q)
                       for r, q in enumerate(sq)]
            used[j] = max(used[j], base[j] + -(-len(sq) // k))

    m, n = max(used), len(res.entries)
    coords = [[list(alg.div.zero().coords) for _ in range(ell)] for _ in range(m * n)]
    for k, j, col, i, q in placed:
        coords[k * n + j][col][i] = alg.field.elem(q)
    sel = MatD(alg.div, [[DElem(alg.div, tuple(c)) for c in row] for row in coords])
    x = MatD.block_diag([res.witness] * m) * sel * tres.inverse
    if times(m, h).evaluate(x, x) != u:
        raise InternalInvariantViolation("weak representation witness failed its check")
    return WeakRepResult("yes", m, x)
