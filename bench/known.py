"""Inputs whose answers are known by construction, and checks that share no
code with the congruence elimination.

Every hermitian matrix is built as theta_t(R) * diag(u) * R with R = L * U,
L unit lower triangular and U upper triangular with a nonzero diagonal, so
R is invertible by construction.  By Sylvester's law of inertia its rank is
the number of nonzero u_i and, at every ordering P that is not nil, its
inertia is the count of u_i positive and negative at P.  Forms over
(M_ell(D), Int(phi) o theta_t) get the Gram (I_k (x) phi) * M with such an
M, and symmetric elements are phi * M; in both cases M is the reduction to
(D, theta).  Nil orderings are decided from the descriptor alone.

Signs are computed here from the coordinates a + b*sqrt(d), not with the
library's sign_at, and positive involutions are certified by the principal
minors of b * phi, not by diagonalizing it.
"""

from __future__ import annotations

import random
from fractions import Fraction


class Mismatch(Exception):
    """An answer disagrees with the answer known by construction."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- signs and the classification of orderings, from the descriptor ---------


def orderings(field) -> tuple[int, ...]:
    return (0,) if field.d is None else (0, 1)


def sign(x, p: int) -> int:
    """Sign of x = a + b*sqrt(d) under the embedding with sqrt(d) -> (-1)^p sqrt(d)."""
    a = x.a
    b = x.b if p == 0 else -x.b
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > x.field.d * b * b else sb


def is_zero(x) -> bool:
    return x.a == 0 and x.b == 0


def is_nil(div, p: int) -> bool:
    """quad d: nil where d < 0; quat a, b: nil unless a, b > 0; split: never."""
    if div.kind == "split":
        return False
    if div.kind == "quad":
        return sign(div.params[0], p) != 1
    a, b = div.params
    return not (sign(a, p) == 1 and sign(b, p) == 1)


def live_orderings(div) -> tuple[int, ...]:
    return tuple(p for p in orderings(div.base) if not is_nil(div, p))


def local_class(div, ell: int, p: int) -> tuple[str, int, bool]:
    """(class, n_P, nil) of the completion of (M_ell(D), sigma) at p."""
    if div.kind == "split":
        return "rcf", ell, False
    if div.kind == "quad":
        return ("d-rcf", ell, True) if is_nil(div, p) else ("acf", ell, False)
    return ("rcf", 2 * ell, True) if is_nil(div, p) else ("quat", ell, False)


def inertia(values, p: int) -> tuple[int, int]:
    signs = [sign(x, p) for x in values]
    return signs.count(1), signs.count(-1)


def signature(div, values, p: int) -> int:
    if is_nil(div, p):
        return 0
    pos, neg = inertia(values, p)
    return pos - neg


# -- random values with prescribed signs -------------------------------------


def field_value(pc, rng: random.Random, field, pattern: tuple[int, ...] | None):
    """A nonzero field element whose sign at each ordering is pattern[p].

    pattern None draws the signs at random.
    """
    while True:
        x = pc.sampling.rand_fieldelem(rng, field, 3)
        if is_zero(x):
            continue
        if pattern is None or all(
            sign(x, p) == s for p, s in zip(orderings(field), pattern)
        ):
            return x


def pattern_of(kind: str, field) -> tuple[int, ...] | None:
    """Sign vector for a value kind: pos, neg, p0 (+ at P0, - at P1), any."""
    n = len(orderings(field))
    if kind == "pos":
        return (1,) * n
    if kind == "neg":
        return (-1,) * n
    if kind == "p0":
        return (1, -1)[:n]
    return None


def values(pc, rng: random.Random, field, kinds) -> list:
    """One field value per kind; the kind "zero" gives 0."""
    return [
        field.zero() if k == "zero" else field_value(pc, rng, field, pattern_of(k, field))
        for k in kinds
    ]


# -- matrices known by construction ------------------------------------------


def _nonzero_delem(pc, rng, div):
    while True:
        x = pc.sampling.rand_delem(rng, div, 2)
        if any(not is_zero(c) for c in x.coords):
            return x


def invertible(pc, rng: random.Random, div, n: int):
    """R = L * U with L unit lower triangular and U upper triangular with a
    nonzero diagonal; invertible over the division algebra by construction."""
    MatD, rand_delem = pc.algebra.MatD, pc.sampling.rand_delem
    one, zero = div.one(), div.zero()
    lower = [
        [one if i == j else rand_delem(rng, div, 1) if j < i else zero for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [
            _nonzero_delem(pc, rng, div) if i == j
            else rand_delem(rng, div, 1) if j > i else zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    return MatD(div, lower) * MatD(div, upper)


def hermitian(pc, rng: random.Random, div, vals):
    """theta_t(R) * diag(vals) * R for a random invertible R: theta-hermitian,
    with the rank and inertia of vals."""
    r = invertible(pc, rng, div, len(vals))
    diag = pc.algebra.MatD.diagonal(div, [div.from_field(v) for v in vals])
    return r.theta_t() * diag * r


def twist_blocks(pc, alg, m):
    """(I_k (x) phi) * M: the Gram over alg whose reduction is M."""
    k = m.rows // alg.ell
    return pc.algebra.kron_identity_left(k, alg.phi) * m


def twisted_algebra(pc, rng: random.Random, alg):
    """The same M_ell(D) with a random invertible hermitian twist phi."""
    vals = values(pc, rng, alg.field, ["any"] * alg.ell)
    phi = hermitian(pc, rng, alg.div, vals)
    return pc.algebra.AlgebraWithInvolution(alg.ell, alg.div, phi)


# -- reading the CLI's output ---------------------------------------------------


def parse_value(field, text: str):
    """Read "a", "a+b*sqrt(d)", "b*sqrt(d)", "-sqrt(d)" and the like."""
    head, found, tail = text.partition("sqrt(")
    if not found:
        return field.elem(Fraction(text))
    expect(tail == f"{field.d})", f"sqrt term {text!r} does not match the field")
    if head.endswith("*"):
        head = head[:-1]
        cut = max(head.rfind("+"), head.rfind("-"))
        a = Fraction(head[:cut]) if cut > 0 else Fraction(0)
        b = Fraction(head[max(cut, 0):])
    else:
        a = Fraction(head[:-1]) if len(head) > 1 else Fraction(0)
        b = Fraction(-1) if head.endswith("-") else Fraction(1)
    return field.elem(a, b)


def decode_matrix(pc, div, rows):
    """A row-major JSON matrix of coordinate lists, read with parse_value."""
    DElem = pc.algebra.DElem
    return pc.algebra.MatD(div, [
        [DElem(div, [parse_value(div.base, c) for c in entry]) for entry in row]
        for row in rows
    ])


# -- independent certificates --------------------------------------------------


def check_diagonal(div, known_vals, entries) -> None:
    """Rank, trailing zeros, and inertia at every non-nil ordering."""
    n = len(known_vals)
    expect(len(entries) == n, f"{len(entries)} diagonal entries, expected {n}")
    rank = sum(1 for v in known_vals if not is_zero(v))
    expect(
        all(not is_zero(e) for e in entries[:rank])
        and all(is_zero(e) for e in entries[rank:]),
        f"rank or zero placement differs from the known rank {rank}",
    )
    for p in live_orderings(div):
        expect(
            inertia(entries, p) == inertia(known_vals, p),
            f"inertia at P{p} differs from the construction",
        )


def check_congruence(pc, m, witness, entries) -> None:
    """theta_t(G) * M * G == diag(entries), recomputed by matrix products."""
    div = m.alg
    diag = pc.algebra.MatD.diagonal(div, [div.from_field(e) for e in entries])
    expect(witness.theta_t() * m * witness == diag, "witness identity fails")


def is_definite(psi, p: int) -> bool:
    """True when the theta-hermitian psi is definite at the non-nil ordering p.

    Sylvester's criterion on leading principal minors: for ell <= 2 the
    2 x 2 minor is a*c - nrd(b), valid over every D of this package; for
    ell = 3 only split algebras occur, and the minors are determinants.
    """
    n = psi.rows
    e = psi.entries
    if n == 1:
        return sign(e[0][0].coords[0], p) != 0
    if n == 2:
        det = e[0][0].coords[0] * e[1][1].coords[0] - e[0][1].nrd()
        return sign(e[0][0].coords[0], p) != 0 and sign(det, p) == 1
    expect(psi.alg.kind == "split" and n == 3, "definiteness check needs ell <= 3")
    a = [[e[i][j].coords[0] for j in range(3)] for i in range(3)]
    d1 = a[0][0]
    d2 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    d3 = (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )
    s = [sign(d, p) for d in (d1, d2, d3)]
    return s in ([1, 1, 1], [-1, 1, -1])


def check_positive_twist(alg, b, p: int) -> None:
    """tau = Int(b) o sigma is positive at p iff psi = b * phi is definite there."""
    expect(
        alg.phi * b.theta_t() == b * alg.phi,
        "b is not sigma-symmetric",
    )
    expect(is_definite(b * alg.phi, p), f"b * phi is not definite at P{p}")


def non_positive_twist(pc, alg):
    """A wrong answer for positive_involution_at: b with b * phi = diag(1, -1, ...),
    which is sigma-symmetric and not definite, or b = 0 when ell = 1."""
    div = alg.div
    if alg.ell == 1:
        return pc.algebra.MatD.zeros(div, 1, 1)
    entries = [div.from_field(1)] + [div.from_field(-1)] * (alg.ell - 1)
    return pc.algebra.MatD.diagonal(div, entries) * alg.phi_inv
