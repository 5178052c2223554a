"""Hermitian forms over (M_ell(D), sigma) and their diagonalization.

A form of rank k is stored through its flattened Gram matrix: the k x k
grid of ell x ell blocks over D, assembled into one (k*ell) x (k*ell)
matrix.  Block (j, i) must equal sigma applied to block (i, j).

Diagonalization works by symmetric congruence pivoting over the division
algebra: theta_t(G) * H * G = diag(entries) with G invertible, computed
and verified in exact arithmetic.  Nonzero diagonal entries always lie in
the symmetric elements of D, which is the base field, so they are
returned as field elements; zero entries are moved to the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Sequence

from .algebra import AlgebraWithInvolution, DElem, MatD, kron_identity_left
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotHermitian,
    NotSymmetric,
    Singular,
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
    "scale_form",
    "nonsingular_part",
    "morita_diag_rep",
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

    __slots__ = ("alg", "rank", "gram")

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
        if not _checked and not _is_sigma_hermitian(alg, rank, gram):
            raise NotHermitian("gram is not sigma-hermitian")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianForm is immutable")

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
        phi, phi_inv = self.alg.phi, self.alg.phi_inv
        scaled = kron_identity_left(self.rank, phi_inv) * self.gram
        return phi * (x.theta_t() * scaled * y)

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


def _is_sigma_hermitian(alg: AlgebraWithInvolution, rank: int, gram: MatD) -> bool:
    ell = alg.ell
    for i in range(rank):
        for j in range(i, rank):
            bij = gram.submatrix(i * ell, j * ell, ell, ell)
            bji = gram.submatrix(j * ell, i * ell, ell, ell)
            if bji != alg.sigma(bij):
                return False
    return True


# -- diagonalization ---------------------------------------------------------


@dataclass(frozen=True)
class DiagonalizationResult:
    """G and entries with theta_t(G) * H * G = diag(entries) exactly."""

    witness: MatD
    entries: tuple[FieldElem, ...]

    @property
    def rank(self) -> int:
        return sum(1 for e in self.entries if not e.is_zero())

    def sign_counts_at(self, p: int) -> tuple[int, int, int]:
        """(positive, negative, zero) counts of the entries at ordering p."""
        pos = sum(1 for e in self.entries if e.sign_at(p) == 1)
        neg = sum(1 for e in self.entries if e.sign_at(p) == -1)
        return pos, neg, len(self.entries) - pos - neg

    def in_cone_at(self, p: int, eps: int = 1) -> bool:
        """True when every nonzero entry has sign eps at ordering p."""
        return all(e.is_zero() or e.sign_at(p) == eps for e in self.entries)


def diagonalize(h: MatD, strategy: str = "first") -> DiagonalizationResult:
    """Diagonalize a theta-hermitian matrix over D by congruence.

    Returns G invertible with theta_t(G) * H * G diagonal; nonzero entries
    are base-field elements and zero entries trail.  strategy selects the
    pivot search order ("first" or "last") and never changes rank or, at
    any ordering where signatures are defined, the entry sign counts.
    """
    if strategy not in ("first", "last"):
        raise ValueError(f"unknown pivot strategy {strategy!r}")
    if not h.is_theta_hermitian():
        raise NotHermitian("input matrix is not theta-hermitian")
    alg = h.alg
    n = h.rows
    work = [list(r) for r in h.entries]
    g = [list(r) for r in MatD.identity(alg, n).entries]
    last = strategy == "last"

    def col_op(i: int, j: int, x: DElem) -> None:
        # col_i += col_j * x on both the working matrix and the witness,
        # then the mirroring row_i += theta(x) * row_j on the working matrix
        xt = x.theta()
        for r in range(n):
            work[r][i] = work[r][i] + work[r][j] * x
            g[r][i] = g[r][i] + g[r][j] * x
        for c in range(n):
            work[i][c] = work[i][c] + xt * work[j][c]

    def swap(i: int, j: int) -> None:
        for r in range(n):
            work[r][i], work[r][j] = work[r][j], work[r][i]
            g[r][i], g[r][j] = g[r][j], g[r][i]
        work[i], work[j] = work[j], work[i]

    for p in range(n):
        idx = range(p, n) if not last else range(n - 1, p - 1, -1)
        piv = next((i for i in idx if not work[i][i].is_zero()), None)
        if piv is None:
            # all remaining diagonal entries vanish; manufacture a pivot
            # from a nonzero off-diagonal entry b via col_i += col_j*theta(b),
            # which lands 2*nrd(b) != 0 on the diagonal
            offs = [
                (i, j)
                for i in range(p, n)
                for j in range(i + 1, n)
                if not work[i][j].is_zero()
            ]
            if not offs:
                break  # remaining block is zero
            i, j = offs[-1] if last else offs[0]
            col_op(i, j, work[i][j].theta())
            piv = i
        if piv != p:
            swap(piv, p)
        a = work[p][p]
        a_inv = a.inverse()
        for r in range(p + 1, n):
            if not work[p][r].is_zero():
                col_op(r, p, -(a_inv * work[p][r]))

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

    result = DiagonalizationResult(witness, tuple(entries))
    _verify_diagonalization(h, result)
    return result


def _verify_diagonalization(h: MatD, res: DiagonalizationResult) -> None:
    """Check theta_t(G) * H * G == diag(entries) and that G is invertible.

    With no zero entry the identity alone proves G invertible.  Otherwise
    the k trailing (radical) columns G_k must have full column rank: if
    G v == 0, the identity makes v vanish at the nonzero entries and the
    rank of G_k makes the rest vanish (so H * G_k == 0 needs no check).
    """
    g = res.witness
    expected = MatD.diagonal(h.alg, [h.alg.from_field(e) for e in res.entries])
    if g.theta_t() * h * g != expected:
        raise InternalInvariantViolation("diagonalization identity failed")
    k = len(res.entries) - res.rank
    if k and not _has_full_column_rank(g.submatrix(0, g.cols - k, g.rows, k)):
        raise InternalInvariantViolation("diagonalization witness is singular")


def _has_full_column_rank(m: MatD) -> bool:
    """True when m * v == 0 only for v == 0, by row elimination over D."""
    rows = [list(r) for r in m.entries]
    for c in range(m.cols):
        i = next((i for i, r in enumerate(rows) if not r[c].is_zero()), None)
        if i is None:
            return False
        piv = rows.pop(i)
        inv = piv[c].inverse()
        for r in rows:
            if not r[c].is_zero():
                f = r[c] * inv
                r[c:] = [x - f * y for x, y in zip(r[c:], piv[c:])]
    return True


# -- constructors ------------------------------------------------------------


def diag_form(alg: AlgebraWithInvolution, elems: Sequence[MatD]) -> HermitianForm:
    """<a_1, ..., a_k> for sigma-symmetric coefficients a_i (zero allowed)."""
    for a in elems:
        if a.rows != alg.ell or a.cols != alg.ell:
            raise DimensionMismatch("coefficient has wrong size")
        if not alg.is_symmetric(a):
            raise NotSymmetric("diagonal coefficient is not sigma-symmetric")
    if not elems:
        return HermitianForm(alg, 0, MatD.zeros(alg.div, 0, 0), _checked=True)
    gram = MatD.block_diag(list(elems))
    return HermitianForm(alg, len(elems), gram, _checked=True)


def rank_one(alg: AlgebraWithInvolution, a: MatD) -> HermitianForm:
    """The form <a> of rank one."""
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


def scale_form(c: MatD, h: HermitianForm) -> HermitianForm:
    """Carry h over (A, sigma) to c*h over (A, Int(c) o sigma).

    c must be sigma-symmetric and invertible; the resulting algebra has
    twist matrix c * phi and the Gram blocks are left-multiplied by c.
    """
    alg = h.alg
    if not alg.is_symmetric(c):
        raise NotSymmetric("scaling element is not sigma-symmetric")
    try:
        new_alg = AlgebraWithInvolution(alg.ell, alg.div, c * alg.phi)
    except Singular:
        raise Singular("scaling element is not invertible") from None
    gram = kron_identity_left(h.rank, c) * h.gram if h.rank else h.gram
    return HermitianForm(new_alg, h.rank, gram, _checked=True)


# -- decomposition into nonsingular part plus zero form ----------------------


def nonsingular_part(h: HermitianForm) -> tuple[HermitianForm, int]:
    """Split h as (part, zero rank): h is isometric to part + the zero form.

    The reduction of h to the base division algebra is diagonalized; its
    m nonzero entries, padded with zeros up to a multiple of ell, are
    pulled back to a diagonal form over the original algebra.  The part
    is nonsingular only when ell divides m; otherwise it carries (-m) mod
    ell zero entries over D, e.g. <diag(1, 0)> over M_2(Q) comes back
    unchanged with zero rank 0.  When h is already nonsingular it is
    returned unchanged.
    """
    from .morita import reduced_diagonal

    alg = h.alg
    ell = alg.ell
    res = reduced_diagonal(h)
    nonzero = [e for e in res.entries if not e.is_zero()]
    zeros = len(res.entries) - len(nonzero)
    if zeros == 0:
        return h, 0
    m = len(nonzero)
    padded = m + (-m) % ell
    blocks = []
    for start in range(0, padded, ell):
        chunk = nonzero[start : start + ell]
        chunk = chunk + [alg.field.zero()] * (ell - len(chunk))
        diag = MatD.diagonal(alg.div, [alg.div.from_field(c) for c in chunk])
        blocks.append(alg.phi * diag)
    ns = diag_form(alg, blocks)
    return ns, h.rank - ns.rank


# -- scaled diagonal representation ------------------------------------------


def morita_diag_rep(h: HermitianForm) -> tuple[MatD, ...]:
    """Coefficients a_1, ..., a_m with ell x h isometric to <a_1, ..., a_m>.

    m = ell * rank(h); each a_i is a symmetric element of A, invertible or
    zero.  The list is obtained by reducing h to the base division algebra,
    diagonalizing with a verified witness, and pulling each diagonal value
    u back to u * phi.  The reduction of <u * phi> is <u, ..., u> (ell
    copies), so both sides reduce to ell copies of the same diagonal.
    """
    from .morita import reduced_diagonal

    alg = h.alg
    return tuple(
        alg.phi.scale_field(u) if not u.is_zero() else alg.zero()
        for u in reduced_diagonal(h).entries
    )


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

    Yields lists of (slot, coordinate, squares summing to the coefficient).
    In the coordinates (1, sqrt(d)) of the base field, two generators
    suffice whenever any nonnegative combination exists (Caratheodory).
    """
    for j, i, g in gens:
        r = e / g
        if r.is_rational() and r.a > 0:
            yield [(j, i, _squares(r.a))]
    for k, (j1, i1, g1) in enumerate(gens):
        for j2, i2, g2 in gens[k + 1 :]:
            det = g1.a * g2.b - g2.a * g1.b
            if det:
                l1 = (e.a * g2.b - g2.a * e.b) / det
                l2 = (g1.a * e.b - e.a * g1.b) / det
                if l1 > 0 and l2 > 0:
                    yield [(j1, i1, _squares(l1)), (j2, i2, _squares(l2))]


def weakly_represents(h: HermitianForm, u: MatD) -> WeakRepResult:
    """Build x with (m x h)(x, x) == u from a formula, with no search.

    The reductions of h and <u> to (D, theta) diagonalize to <d_j> and
    <e_c>.  With <c_i> = <theta(beta) beta> over the standard basis of D
    (the norm form), an element of D with coordinates q_i in slot j of a
    copy of h adds d_j * sum_i c_i q_i^2.  So each nonzero e_c is written
    as a nonnegative rational combination of at most two generators
    d_j * c_i: a single one whose ratio is a rational square if there is
    one, else any; among those, the one that needs the fewest copies.
    Each coefficient is split into rational squares, and each square
    fills one coordinate of one copy of slot j.

    The answer is "yes", with a re-checked witness, exactly when every
    nonzero e_c is such a combination; otherwise it is "unknown".  u must
    be sigma-symmetric.
    """
    from .morita import reduced_diagonal

    alg, ell = h.alg, h.alg.ell
    if not alg.is_symmetric(u):
        raise NotSymmetric("target element is not sigma-symmetric")
    if u.is_zero():
        return WeakRepResult("yes", 1, MatD.zeros(alg.div, h.rank * ell, ell))

    res = reduced_diagonal(h)
    tres = reduced_diagonal(rank_one(alg, u))
    norm = [(b.theta() * b).scalar() for b in alg.div.basis()]
    gens = [(j, i, d * c) for i, c in enumerate(norm)
            for j, d in enumerate(res.entries) if not d.is_zero()]
    used = [0] * len(res.entries)  # copies of each slot filled so far
    placed = []  # (copy, slot, column, coordinate, square root)
    for col, e in enumerate(tres.entries):
        if e.is_zero():
            continue
        split = min(_combinations(e, gens), default=None, key=lambda s: (
            len(s) > 1 or len(s[0][2]) > 1, max(used[j] + len(q) for j, _, q in s)
        ))
        if split is None:
            return WeakRepResult("unknown")
        base = list(used)
        for j, i, sq in split:
            placed += [(base[j] + r, j, col, i, q) for r, q in enumerate(sq)]
            used[j] = max(used[j], base[j] + len(sq))

    m, n = max(used), len(res.entries)
    coords = [[list(alg.div.zero().coords) for _ in range(ell)] for _ in range(m * n)]
    for k, j, col, i, q in placed:
        coords[k * n + j][col][i] = alg.field.elem(q)
    sel = MatD(alg.div, [[DElem(alg.div, tuple(c)) for c in row] for row in coords])
    x = MatD.block_diag([res.witness] * m) * sel * tres.witness.inverse()
    if times(m, h).evaluate(x, x) != u:
        raise InternalInvariantViolation("weak representation witness failed its check")
    return WeakRepResult("yes", m, x)
