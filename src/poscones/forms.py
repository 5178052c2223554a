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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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

PIVOT_STRATEGIES = ("first", "last")


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

    def blocks(self) -> list[list[MatD]]:
        return [
            [self.block(i, j) for j in range(self.rank)] for i in range(self.rank)
        ]

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
    if strategy not in PIVOT_STRATEGIES:
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
    check = res.witness.theta_t() * h * res.witness
    expected = MatD.diagonal(
        h.alg, [h.alg.from_field(e) for e in res.entries]
    )
    if check != expected:
        raise InternalInvariantViolation("diagonalization identity failed")


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
        return HermitianForm(
            h.alg, 0, MatD.zeros(h.alg.div, 0, 0), _checked=True
        )
    gram = MatD.block_diag([h.gram] * m)
    return HermitianForm(h.alg, m * h.rank, gram, _checked=True)


def tensor(q: QuadraticFormF, h: HermitianForm) -> HermitianForm:
    """q tensor h: the sum over i of h scaled by the central u_i."""
    for u in q.entries:
        if u.field != h.alg.field:
            raise ValueError("field mismatch between form factors")
    if not q.entries or h.rank == 0:
        return HermitianForm(
            h.alg, 0, MatD.zeros(h.alg.div, 0, 0), _checked=True
        )
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
        c.inverse()
    except Singular:
        raise Singular("scaling element is not invertible") from None
    new_alg = AlgebraWithInvolution(alg.ell, alg.div, c * alg.phi)
    gram = kron_identity_left(max(h.rank, 0), c) * h.gram if h.rank else h.gram
    return HermitianForm(new_alg, h.rank, gram, _checked=True)


# -- decomposition into nonsingular part plus zero form ----------------------


def nonsingular_part(h: HermitianForm) -> tuple[HermitianForm, int]:
    """Split h as (nonsingular part, zero rank).

    The reduction of h to the base division algebra is diagonalized; the
    nonzero entries, padded with zeros up to a multiple of ell, are pulled
    back to a diagonal form over the original algebra.  When h is already
    nonsingular it is returned unchanged.
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
    diagonalizing, and pulling each diagonal value u back to u * phi.  The
    claimed isometry is validated on rank and on signatures at every
    ordering; each side is diagonalized once and read at every ordering.
    """
    from .morita import reduced_diagonal
    from .orders import orderings_of
    from .signature import _signature

    alg = h.alg
    res = reduced_diagonal(h)
    coeffs = tuple(
        alg.phi.scale_field(u) if not u.is_zero() else alg.zero()
        for u in res.entries
    )
    rep = diag_form(alg, coeffs)
    lhs = times(alg.ell, h)
    if rep.rank != lhs.rank:
        raise InternalInvariantViolation("diagonal representative rank mismatch")
    rep_res, lhs_res = reduced_diagonal(rep), reduced_diagonal(lhs)
    for p in orderings_of(alg):
        if _signature(alg, rep_res, p) != _signature(alg, lhs_res, p):
            raise InternalInvariantViolation(
                "diagonal representative signature mismatch"
            )
    return coeffs


# -- bounded search for weak representation ----------------------------------


@dataclass(frozen=True)
class WeakRepResult:
    """Outcome of a bounded search for u among values of copies of h."""

    status: str  # "yes" | "unknown"
    copies: int = 0
    witness: MatD | None = None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    from math import isqrt

    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _field_square_scale(u: FieldElem, d: FieldElem) -> FieldElem | None:
    """c with c^2 * d == u and c rational, if one exists."""
    if d.is_zero():
        return None
    ratio = u / d
    if not ratio.is_rational():
        return None
    c = _rational_sqrt(ratio.a)
    if c is None:
        return None
    return u.field.elem(c)


def weakly_represents(
    h: HermitianForm,
    u: MatD,
    budget: int = 64,
    seed: int = 0,
) -> WeakRepResult:
    """Search for x with (m x h)(x, x) == u for some m <= budget.

    A "yes" answer always carries an exact witness x, re-checked before it
    is returned; "unknown" only means the bounded search failed.  u must be
    sigma-symmetric.
    """
    from .morita import reduced_diagonal

    alg = h.alg
    if not alg.is_symmetric(u):
        raise NotSymmetric("target element is not sigma-symmetric")
    ell = alg.ell
    if u.is_zero():
        witness = MatD.zeros(alg.div, h.rank * ell, ell)
        return WeakRepResult("yes", 1, witness)
    if h.rank == 0:
        return WeakRepResult("unknown")

    rng = random.Random(seed)
    res = reduced_diagonal(h)
    d_entries = res.entries  # diagonal of one copy of h after reduction

    # diagonalize the reduction of <u> so both sides are diagonal over F
    tres = reduced_diagonal(rank_one(alg, u))

    def check(m: int, x: MatD) -> WeakRepResult | None:
        val = times(m, h).evaluate(x, x)
        if val == u:
            return WeakRepResult("yes", m, x)
        return None

    def structured(m: int) -> WeakRepResult | None:
        # match each diagonal value of <u> to a slot d_j scaled by a
        # rational square, re-using each slot (across the m copies) once
        total = list(d_entries) * m
        used = [False] * len(total)
        n = len(total)
        sel = MatD.zeros(alg.div, n, ell).entries
        sel = [list(r) for r in sel]
        for col, e in enumerate(tres.entries):
            if e.is_zero():
                continue
            hit = None
            for j, dj in enumerate(total):
                if used[j] or dj.is_zero():
                    continue
                c = _field_square_scale(e, dj)
                if c is not None:
                    hit = (j, c)
                    break
            if hit is None:
                return None
            j, c = hit
            used[j] = True
            sel[j][col] = alg.div.from_field(c)
        sel_m = MatD(alg.div, sel)
        big_g = MatD.block_diag([res.witness] * m)
        x = big_g * sel_m * tres.witness.inverse()
        return check(m, x)

    small = [alg.field.elem(v) for v in (0, 1, -1, 2, -2, Fraction(1, 2))]

    def random_candidate(m: int) -> WeakRepResult | None:
        n = m * h.rank * ell
        entries = [
            [
                DElem(
                    alg.div,
                    tuple(
                        rng.choice(small) if rng.random() < 0.6 else alg.field.zero()
                        for _ in range(alg.div.dim)
                    ),
                )
                for _ in range(ell)
            ]
            for _ in range(n)
        ]
        return check(m, MatD(alg.div, entries))

    for m in range(1, budget + 1):
        if m <= 8:
            got = structured(m)
            if got is not None:
                return got
        for _ in range(4):
            got = random_candidate(m)
            if got is not None:
                return got
    return WeakRepResult("unknown")
